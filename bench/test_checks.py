"""Each output check passes on the program's value and fails on a wrong one.

    python3 -m pytest bench/test_checks.py -q

Inputs are small datasets generated on the spot; no output of the
program is stored in the repository.
"""
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import aucseg  # noqa: E402
from aucseg import cli  # noqa: E402

import checks  # noqa: E402
from checks import CheckError  # noqa: E402

K = 5


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    cfg = aucseg.GenConfig(num_classes=K, height=12, width=12, channels=3, images=24,
                           zipf_s=1.0, presence=(1.0, 1.0, 1.0, 0.3, 0.3),
                           feature_noise_sigma=0.3, seed=5)
    items, truth = aucseg.generate(cfg)
    path = str(root / "d.segd")
    aucseg.write_segd(path, items)
    result = aucseg.train_and_save(items, aucseg.TrainConfig(
        max_iter=6, warmup_iters=2, eval_every=6, batch_size=4,
        bank=aucseg.BankConfig(tail_fraction=0.4), seed=1), str(root / "run"))
    csv_path = str(root / "eval.csv")
    assert cli.main(["eval", "--data", path, "--model", str(root / "run" / "model.segm"),
                     "--out", csv_path]) == 0
    return {"cfg": cfg, "items": items, "truth": truth, "path": path, "result": result,
            "model": str(root / "run" / "model.segm"),
            "eval_row": checks_csv_row(csv_path)}


def checks_csv_row(path):
    import csv
    with open(path, newline="") as f:
        return next(csv.DictReader(f))


def arrays(items):
    return [(f.values, lab.labels) for f, lab in items]


def test_segd_and_segm_parsers_read_what_the_program_wrote(data):
    items, k = checks.read_segd_arrays(data["path"])
    assert k == K
    checks.check_bit_exact("parse", items, arrays(data["items"]))
    w, b = checks.read_segm_arrays(data["model"])
    model = aucseg.load_model(data["model"])
    assert np.array_equal(w, model.weights) and np.array_equal(b, model.bias)


def test_bit_exact_fails_on_one_flipped_bit(data):
    items = arrays(data["items"])
    bad = [(f.copy(), l) for f, l in items]
    bad[3][0].view(np.uint32)[0, 0, 0] ^= 1
    with pytest.raises(CheckError, match="image 3 features"):
        checks.check_bit_exact("x", bad, items)
    labels = [(f, l.copy()) for f, l in items]
    labels[0][1][0, 0] = (labels[0][1][0, 0] + 1) % K
    with pytest.raises(CheckError, match="image 0 labels"):
        checks.check_bit_exact("x", labels, items)


def test_truth_counts(data):
    labels = [l for _, l in arrays(data["items"])]
    counts = data["truth"].painted_counts
    checks.check_truth_counts(counts, labels, K)
    bad = counts.copy()
    bad[2, 0] += 1
    with pytest.raises(CheckError, match="image 2"):
        checks.check_truth_counts(bad, labels, K)


EVAL_FIELDS = ("miou", "head_miou", "middle_miou", "tail_miou", "ovo_auc")


def test_eval_row(data):
    res = data["result"]
    row = {n: getattr(res.evals[-1], n) for n in EVAL_FIELDS}
    items = arrays(data["items"])
    args = (res.model.weights, res.model.bias, items, res.train_indices, res.eval_indices, K)
    checks.check_eval_row(row, *args)
    for name in EVAL_FIELDS:
        if np.isnan(row[name]):
            continue
        with pytest.raises(CheckError, match=name):
            checks.check_eval_row(dict(row, **{name: row[name] + 2e-9}), *args)


def test_eval_csv_and_diagnostics(data):
    w, b = checks.read_segm_arrays(data["model"])
    items = arrays(data["items"])
    row = data["eval_row"]
    checks.check_eval_csv(row, w, b, items, K)
    for name in EVAL_FIELDS + ("tau", "tau_mean_normalized", "imbalance_ratio"):
        value = float(row[name])
        if np.isnan(value):
            continue
        with pytest.raises(CheckError, match=name):
            checks.check_eval_csv(dict(row, **{name: repr(value * (1 + 1e-8) + 1e-8)}),
                                  w, b, items, K)


def test_ovo_auc_counting_matches_the_metric_with_ties():
    rng = np.random.default_rng(3)
    scores = [np.round(rng.random((6, 7, K)) * 4) / 4 for _ in range(3)]
    labels = [rng.integers(-1, K, size=(6, 7)).astype(np.int32) for _ in range(3)]
    got = aucseg.ovo_auc_metric(scores, labels)
    assert abs(checks.ovo_auc_by_counting(scores, labels, K) - got) < 1e-12


@pytest.mark.parametrize("kind", ["square", "hinge", "exp"])
@pytest.mark.parametrize("mode", ["ovo", "ova"])
def test_auc_loss_all_pairs(kind, mode):
    rng = np.random.default_rng(4)
    scores = [aucseg.softmax(rng.standard_normal((9, 8, K))) for _ in range(2)]
    labels = [rng.integers(-1, K, size=(9, 8)).astype(np.int32) for _ in range(2)]
    fn = aucseg.ovo_auc_loss if mode == "ovo" else aucseg.ova_auc_loss
    loss = fn(scores, labels, kind).loss
    checks.check_auc_loss(loss, scores, labels, kind, mode)
    with pytest.raises(CheckError, match="AUC loss"):
        checks.check_auc_loss(loss * (1 + 1e-8), scores, labels, kind, mode)


def test_pastes_carry_their_class():
    before = np.zeros((6, 6), dtype=np.int32)
    labels = before.copy()
    mask = np.zeros((6, 6), dtype=bool)
    labels[1:3, 1:3] = 4
    mask[1:3, 1:3] = True
    labels[2:5, 2:5] = 3  # a later paste covers part of the first
    mask[2:5, 2:5] = True
    records = [(4, 0, 1, 1, 2, 2), (3, 0, 2, 2, 3, 3)]
    checks.check_pastes(records, [before], [labels], [mask])
    bad = labels.copy()
    bad[1, 1] = 2
    with pytest.raises(CheckError, match="pasted pixel"):
        checks.check_pastes(records, [before], [bad], [mask])
    bad = labels.copy()
    bad[5, 5] = 3
    with pytest.raises(CheckError, match="outside the pasted mask"):
        checks.check_pastes(records, [before], [bad], [mask])


def test_store_sizes_and_pastes_happened():
    checks.check_store_sizes({3: 5, 4: 1}, 5)
    with pytest.raises(CheckError, match="memory_size"):
        checks.check_store_sizes({3: 6}, 5)
    checks.check_pastes_happened(1)
    with pytest.raises(CheckError):
        checks.check_pastes_happened(0)


def test_image_count():
    checks.check_image_count(80, 10, 8)
    with pytest.raises(CheckError):
        checks.check_image_count(79, 10, 8)


def test_required_batch():
    b = aucseg.required_batch_size(19, 0.01, 0.01)
    checks.check_required_batch(19, 0.01, 0.01, b)
    for wrong in (b - 1, b + 1):
        with pytest.raises(CheckError):
            checks.check_required_batch(19, 0.01, 0.01, wrong)


def test_failure_rate():
    res = aucseg.simulate_coverage([0.05] * 12, 120, 4000, seed=2)
    checks.check_failure_rate(12, 0.05, 120, res.failures, res.trials)
    with pytest.raises(CheckError):
        checks.check_failure_rate(12, 0.05, 120, 2 * res.failures + 10, res.trials)
