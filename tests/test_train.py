import hashlib
import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

import aucseg
from aucseg import (Batch, BankConfig, FormatError, GenConfig, NumericalError,
                    TrainConfig, ValidationError, combined_loss, forward,
                    generate, init_model, learning_rate, load_model, save_model,
                    softmax, train, train_and_save)
from aucseg.train import PixelModel, write_metrics_csv

from _oracles import fd_gradient


def quick_items(seed=3, noise=0.15, images=12, k=4):
    cfg = GenConfig(num_classes=k, height=10, width=10, channels=3, images=images,
                    zipf_s=1.0, shapes_per_class=2, feature_noise_sigma=noise,
                    seed=seed)
    items, _ = generate(cfg)
    return items


def quick_config(**kw):
    base = dict(max_iter=40, eval_every=20, batch_size=4, base_lr=1.0,
                warmup_iters=5, head_count=1, middle_count=1, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_package_attribute_train_is_the_function_not_the_module():
    # the package re-exports train() under the submodule's name, so the
    # module itself is reached through importlib (or sys.modules)
    module = importlib.import_module("aucseg.train")
    assert aucseg.train is module.train and aucseg.train is not module
    assert module.forward is aucseg.forward


# ------------------------------------------------------------------- schedule

def test_learning_rate_warmup_then_poly():
    cfg = TrainConfig(base_lr=1.0, lr_floor=0.0, warmup_iters=10, max_iter=100)
    assert learning_rate(cfg, 5) == 0.5
    assert learning_rate(cfg, 10) == 1.0
    assert learning_rate(cfg, 50) == 0.5
    assert learning_rate(cfg, 100) == 0.0
    ramp = [learning_rate(cfg, i) for i in range(1, 11)]
    assert all(a < b for a, b in zip(ramp, ramp[1:]))


def test_learning_rate_no_warmup():
    cfg = TrainConfig(base_lr=2.0, warmup_iters=0, max_iter=10)
    assert learning_rate(cfg, 1) == 2.0 * 0.9


# ---------------------------------------------------------------- model + io

def test_forward_shapes_and_simplex():
    model = init_model(3, 4, seed=1)
    items = quick_items()
    scores = forward(model, [f for f, _ in items[:2]])
    assert scores[0].scores.shape == (10, 10, 4)
    assert np.allclose(scores[0].scores.sum(axis=-1), 1.0)


def test_forward_channel_mismatch():
    model = init_model(5, 4, seed=1)
    items = quick_items()
    with pytest.raises(ValidationError):
        forward(model, [items[0][0]])


def test_one_hot_features_identity_model_argmax():
    # identity weights on one-hot features score the feature's class highest
    k = 3
    model = PixelModel(weights=np.eye(k), bias=np.zeros(k))
    feats = np.zeros((1, k, k), dtype=np.float32)
    for c in range(k):
        feats[0, c, c] = 1.0
    scores = forward(model, [feats])[0]
    assert scores.scores.argmax(axis=-1).tolist() == [[0, 1, 2]]


def test_segm_round_trip_bit_exact(tmp_path):
    model = init_model(4, 6, seed=9)
    p1 = tmp_path / "m1.segm"
    p2 = tmp_path / "m2.segm"
    save_model(p1, model)
    back = load_model(p1)
    save_model(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(back.weights, model.weights.astype(np.float32).astype(np.float64))


def test_segm_structured_errors(tmp_path):
    model = init_model(2, 3, seed=0)
    path = tmp_path / "m.segm"
    save_model(path, model)
    good = path.read_bytes()

    bad = bytearray(good)
    bad[:4] = b"XXXX"
    path.write_bytes(bytes(bad))
    with pytest.raises(FormatError) as e:
        load_model(path)
    assert e.value.offset == 0

    path.write_bytes(good[:-3])
    with pytest.raises(FormatError) as e:
        load_model(path)
    assert e.value.offset == len(good) - 3

    bad = bytearray(good)
    bad[4:8] = (2).to_bytes(4, "little")
    path.write_bytes(bytes(bad))
    with pytest.raises(FormatError, match="version") as e:
        load_model(path)
    assert e.value.offset == 4

    bad = bytearray(good)
    bad[8:12] = bytes(4)
    path.write_bytes(bytes(bad))
    with pytest.raises(FormatError, match="zero model dimension") as e:
        load_model(path)
    assert e.value.offset == 8

    path.write_bytes(good + b"\0")
    with pytest.raises(FormatError, match="trailing") as e:
        load_model(path)
    assert e.value.offset == len(good)


# ------------------------------------------------------------------- training

def test_training_reduces_combined_loss_on_noiseless_data():
    items = quick_items(noise=0.0, images=10, k=3)
    cfg = quick_config(max_iter=300, eval_every=300, base_lr=1.0, warmup_iters=20,
                       bank=None)
    res = train(items, cfg)
    first = res.steps[0].loss
    best = min(s.loss for s in res.steps)
    assert best < 0.1 * first


def test_training_full_pipeline_gradient_check():
    # freeze one augmented batch and differentiate loss(params) numerically
    items = quick_items(noise=0.2, images=4, k=3)
    batch = Batch(items=tuple(items))
    model = init_model(3, 3, seed=4)

    def loss_of(wflat):
        w = wflat[: 3 * 3].reshape(3, 3)
        b = wflat[3 * 3 :]
        m = PixelModel(weights=w, bias=b)
        scores = forward(m, batch.features)
        return combined_loss(scores, batch.labels, kind="square", lam=0.25).loss

    from aucseg.train import _backward

    scores = forward(model, batch.features)
    rep = combined_loss(scores, batch.labels, kind="square", lam=0.25)
    dw, db = _backward(model, batch, scores, rep.gradients)
    packed = np.concatenate([model.weights.ravel(), model.bias])
    fd = fd_gradient(lambda x: loss_of(x), packed.copy(), step=1e-6)
    analytic = np.concatenate([dw.ravel(), db])
    assert np.linalg.norm(analytic - fd) <= 1e-4 * max(1.0, np.linalg.norm(analytic))


def test_eval_split_is_disjoint_and_fixed():
    items = quick_items(images=15)
    cfg = quick_config(max_iter=10, eval_every=10)
    r1 = train(items, cfg)
    r2 = train(items, cfg)
    assert set(r1.train_indices) & set(r1.eval_indices) == set()
    assert len(r1.train_indices) + len(r1.eval_indices) == 15
    assert np.array_equal(r1.eval_indices, r2.eval_indices)


def test_training_is_deterministic(tmp_path):
    items = quick_items(images=14)
    cfg = quick_config(max_iter=30, eval_every=10, seed=5)
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    train_and_save(items, cfg, d1)
    train_and_save(items, cfg, d2)
    assert (d1 / "metrics.csv").read_bytes() == (d2 / "metrics.csv").read_bytes()
    assert (d1 / "model.segm").read_bytes() == (d2 / "model.segm").read_bytes()


def test_bank_participates_and_logs_pastes():
    # tail classes rarely present: with the bank on, paste counts show up
    presence = (1.0, 1.0, 1.0, 0.15)
    cfg_d = GenConfig(num_classes=4, height=10, width=10, channels=3, images=30,
                      zipf_s=1.2, presence=presence, shapes_per_class=1,
                      feature_noise_sigma=0.2, seed=21)
    items, _ = generate(cfg_d)
    bank_cfg = BankConfig(memory_size=4, sample_ratio=1.0, resize_ratio=0.5,
                          tail_fraction=0.3)
    cfg = quick_config(max_iter=60, eval_every=60, bank=bank_cfg, batch_size=4)
    res = train(items, cfg)
    assert sum(s.pasted for s in res.steps) > 0
    assert any(s.missing > 0 for s in res.steps)


def test_objective_ce_skips_auc_and_bank():
    items = quick_items(images=10)
    cfg = quick_config(objective="ce", max_iter=15, eval_every=15)
    res = train(items, cfg)
    assert all(s.loss_auc == 0.0 for s in res.steps)
    assert all(s.pasted == 0 for s in res.steps)


def test_overflowing_logits_raise_numerical_error():
    model = PixelModel(weights=np.full((2, 3), 1e308), bias=np.zeros(3))
    feats = np.full((2, 2, 2), 10.0, dtype=np.float32)
    with pytest.raises(NumericalError):
        forward(model, [feats])


def test_nan_weight_raises_numerical_error():
    weights = np.zeros((2, 3))
    weights[1, 2] = np.nan
    feats = np.ones((2, 2, 2), dtype=np.float32)
    with pytest.raises(NumericalError):
        forward(PixelModel(weights=weights, bias=np.zeros(3)), [feats])


def test_checkpoint_with_overflowed_weights_fails_numerically(tmp_path):
    # a diverged checkpoint round-trips to inf through the float32 cast and
    # must surface as a numerical failure at inference, not garbage scores
    model = PixelModel(weights=np.full((3, 4), 1e308), bias=np.zeros(4))
    path = tmp_path / "bad.segm"
    with np.errstate(over="ignore"):
        save_model(path, model)
    loaded = load_model(path)
    assert np.isinf(loaded.weights).all()
    feats = np.ones((2, 2, 3), dtype=np.float32)
    with pytest.raises(NumericalError):
        forward(loaded, [feats])


def test_metrics_csv_layout(tmp_path):
    items = quick_items(images=12)
    cfg = quick_config(max_iter=20, eval_every=10)
    res = train(items, cfg)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, res.evals)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iteration,loss,loss_auc,loss_ce,miou,head_miou,middle_miou,tail_miou,ovo_auc"
    assert len(lines) == 1 + len(res.evals)
    first = lines[1].split(",")
    assert first[0] == "10"
    float(first[4])  # parses


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(surrogate="l2")
    with pytest.raises(ValidationError):
        TrainConfig(objective="dice")
    with pytest.raises(ValidationError):
        TrainConfig(eval_fraction=0.0)
    with pytest.raises(ValidationError):
        TrainConfig(base_lr=0.0)
    for bad in (np.nan, np.inf):
        for name in ("lam", "base_lr", "lr_floor"):
            with pytest.raises(ValidationError):
                TrainConfig(**{name: bad})


@pytest.mark.parametrize("name", ["batch_size", "max_iter", "warmup_iters", "eval_every",
                                  "head_count", "middle_count", "seed"])
def test_train_config_integer_fields_reject_non_integers(name):
    # eval_every=2.5 with max_iter=10 would evaluate at steps 5 and 10
    with pytest.raises(ValidationError):
        TrainConfig(**{name: 2.5})
    with pytest.raises(ValidationError):
        TrainConfig(**{name: 3.0})
    assert getattr(TrainConfig(**{name: np.int64(3)}), name) == 3


KNOWN_ANSWER_BANK = BankConfig(memory_size=4, sample_ratio=1.0, resize_ratio=0.5, tail_fraction=0.34)


def known_answer_run(out_dir, surrogate, mode, objective, bank):
    """30 training steps on 30 generated 12x12 images, files written to out_dir."""
    items, _ = generate(GenConfig(num_classes=12, height=12, width=12, channels=4, images=30,
                                  zipf_s=1.2, presence=(1.0,) * 8 + (0.3,) * 4,
                                  feature_noise_sigma=0.3, seed=19))
    cfg = TrainConfig(surrogate=surrogate, mode=mode, objective=objective, max_iter=30,
                      eval_every=10, batch_size=4, warmup_iters=3, head_count=4,
                      middle_count=4, bank=bank, seed=5)
    return train_and_save(items, cfg, out_dir)


def float64_parameters(res):
    return res.model.weights.tobytes() + res.model.bias.tobytes()


@pytest.mark.parametrize("surrogate, mode, objective, bank, digests", [
    ("square", "ovo", "auc_ce", KNOWN_ANSWER_BANK,
     ("e90d2ff3eab3afffef6f82ecfc8039da17c1651e9da36469f898d152fb2eeaad",
      "c220f284b573506145b15efdb2225d2d6b85372eb8bb2937e5f4875ab27a6f6a",
      "79bb37151d37f3a95d1bd3136971af88a78b53804cbf6dfa332fe81c9763e7b8")),
    ("square", "ovo", "ce", None,
     ("2cf9b7fca77c7b13f3b9bb24e7d675cf0e466f9dd71ddf8f3bf4193d5aae9193",
      "5e6872aa4a5218258e7d4c33bf7bfb1f782d4c6b7be0550698ae316e5879b512",
      "5bc66aa1b5b9447fd2edeb637683959927c8463633e28a58ebfcf18fac9110c9")),
    ("hinge", "ova", "auc_ce", KNOWN_ANSWER_BANK,
     ("85af833d7e0dfc8ddad1087e009103919cf5ba720bda0f3924fe106e9fb9192b",
      "f091721d2a6b079a02e8c2eaac71ad799a5bb7582df961394265c9f01777dc15",
      "bdf57a9cacaa038e316f37d45dea21e27615d93f04c23aa938c0aa5809381053")),
], ids=["square-ovo-auc_ce-bank", "ce", "hinge-ova-auc_ce-bank"])
def test_training_files_known_answer(tmp_path, surrogate, mode, objective, bank, digests):
    # digests of metrics.csv, model.segm, and the float64 parameters and step
    # losses, which keep the last bits that the float32 checkpoint and the
    # 10-digit csv round away. Taken with numpy 2.4.6 dispatching up to
    # AVX512_SPR on x86-64 and scipy-openblas 0.3.31, where they hold on its
    # SkylakeX and Haswell cores alike: the loss layer runs no BLAS. np.exp
    # still follows numpy's SIMD target, and the forward and backward GEMMs
    # round differently on the oldest cores (Sandybridge, Prescott). The
    # hinge loss on softmax scores is a dot product whose last bits may move
    # with its summation order, so its step losses are left out; the
    # parameters, which follow its gradients bit for bit, stay in.
    res = known_answer_run(tmp_path, surrogate, mode, objective, bank)
    assert (sum(s.pasted for s in res.steps) > 0) == (bank is not None)
    blobs = [(tmp_path / name).read_bytes() for name in ("metrics.csv", "model.segm")]
    step_losses = [] if surrogate == "hinge" else [s.loss for s in res.steps]
    blobs.append(float64_parameters(res) + np.array(step_losses).tobytes())
    assert tuple(hashlib.sha256(b).hexdigest() for b in blobs) == digests


KNOWN_ANSWER_CHILD = """
import sys
from pathlib import Path
import test_train
out = Path(sys.argv[1])
res = test_train.known_answer_run(out, sys.argv[2], sys.argv[3], "auc_ce", test_train.KNOWN_ANSWER_BANK)
(out / "parameters.bin").write_bytes(test_train.float64_parameters(res))
"""


@pytest.mark.parametrize("surrogate, mode", [("square", "ovo"), ("hinge", "ova")])
def test_known_answer_parameters_hold_on_openblas_haswell_core(tmp_path, surrogate, mode):
    # OpenBLAS picks its core when it loads, so the Haswell one runs in a child
    # process. The AUC loss and its gradient run no BLAS, and the forward and
    # backward GEMMs round alike on this core and the default one, so the
    # float64 parameters must match bit for bit. Where numpy's BLAS is not
    # OpenBLAS the variable is ignored and the two runs match trivially.
    src = os.path.dirname(os.path.dirname(aucseg.__file__))
    path = [os.path.dirname(os.path.abspath(__file__)), src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=os.pathsep.join(filter(None, path)))
    (tmp_path / "child").mkdir()
    subprocess.run([sys.executable, "-c", KNOWN_ANSWER_CHILD, str(tmp_path / "child"), surrogate, mode],
                   env=env, check=True)
    res = known_answer_run(tmp_path, surrogate, mode, "auc_ce", KNOWN_ANSWER_BANK)
    assert (tmp_path / "child" / "parameters.bin").read_bytes() == float64_parameters(res)
