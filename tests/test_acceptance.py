"""End-to-end acceptance suite.

Each test covers one shipping criterion and prints a single
"ACCEPTANCE <n> <name>: PASS|FAIL" line on the real terminal, bypassing
capture, so a plain pytest run shows the verdict per criterion.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from aucseg import (Batch, BankConfig, ClassStats, FeatureGrid, FormatError,
                    GenConfig, IGNORE, LabelGrid, ScoreGrid, TailMemoryBank,
                    TrainConfig, ce_loss, class_stats, combined_loss,
                    compute_tau, forward, generate, imbalance_ratio,
                    init_model, iou_report, load_model, ova_auc_loss,
                    ovo_auc_loss, ovo_auc_metric, pair_loss, pair_loss_naive,
                    read_segd, required_batch_size, save_model,
                    simulate_coverage, softmax, softmax_backward, train,
                    train_and_save, union_bound, write_segd)
from aucseg.bank import STRATEGIES
from aucseg.losses import SURROGATES
from aucseg.train import PixelModel, _backward

from _oracles import (IOU_FIXTURES, auc_metric_ref, exact_coverage_failure,
                      fd_gradient, iou_ref, ova_ref, ovo_ref, pair_loss_ref,
                      required_b_ref, rm_ref, tau_ref)


@contextlib.contextmanager
def criterion(capfd, num, name):
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        with capfd.disabled():
            print("ACCEPTANCE %d %s: %s" % (num, name, status), flush=True)


def rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def grad_close(ga, gb, tol):
    ga = np.asarray(ga, dtype=np.float64).ravel()
    gb = np.asarray(gb, dtype=np.float64).ravel()
    return np.linalg.norm(ga - gb) <= tol * max(1.0, np.linalg.norm(ga), np.linalg.norm(gb))


def random_labeled_scores(rng, k, shapes, quantize=0, ignore_frac=0.0):
    """Random score/label batch with at least 2 classes present."""
    while True:
        labels, scores = [], []
        for h, w in shapes:
            lab = rng.integers(0, k, size=(h, w)).astype(np.int32)
            if ignore_frac > 0.0:
                lab[rng.random((h, w)) < ignore_frac] = IGNORE
            labels.append(lab)
            if quantize:
                s = rng.integers(0, quantize + 1, size=(h, w, k)) / float(quantize)
            else:
                s = rng.random((h, w, k))
            scores.append(s)
        present = np.unique(np.concatenate([l[l != IGNORE] for l in labels]))
        if len(present) >= 2:
            break
    lgs = [LabelGrid(labels=l, num_classes=k) for l in labels]
    sgs = [ScoreGrid(scores=s) for s in scores]
    return sgs, lgs


# 1 ------------------------------------------------------------------------

def test_fast_kernels_match_naive_oracle(capfd):
    with criterion(capfd, 1, "kernel oracle equivalence"):
        t0 = time.perf_counter()
        for kind in SURROGATES:
            for i in range(200):
                rng = np.random.default_rng(1_000_000 + i)
                p = int(rng.integers(1, 2001))
                n = int(rng.integers(1, 2001))
                # pin the edge sizes so they are always exercised
                if i == 0:
                    p = n = 1
                elif i == 1:
                    p, n = 1, 2000
                elif i == 2:
                    p, n = 2000, 1
                a = rng.random(p)
                b = rng.random(n)
                fast = pair_loss(a, b, kind)
                naive = pair_loss_naive(a, b, kind)
                assert rel_close(fast.loss, naive.loss, 1e-9)
                assert grad_close(fast.grad_pos, naive.grad_pos, 1e-9)
                assert grad_close(fast.grad_neg, naive.grad_neg, 1e-9)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, "kernel sweep took %.1fs" % elapsed


# 2 ------------------------------------------------------------------------

def min_hinge_margin_gap(scores, labels):
    """Smallest |a - b - 1| over every realized ordered class pair."""
    gap = math.inf
    lab = np.concatenate([l.labels.ravel() for l in labels])
    k = labels[0].num_classes
    flat = np.concatenate([s.scores.reshape(-1, k) for s in scores])
    present = [c for c in range(k) if np.any(lab == c)]
    for cp in present:
        for cn in present:
            if cn == cp:
                continue
            a = flat[lab == cp, cp]
            b = flat[lab == cn, cp]
            gap = min(gap, float(np.min(np.abs(a[:, None] - b[None, :] - 1.0))))
    return gap


def test_analytic_gradients_match_finite_differences(capfd):
    with criterion(capfd, 2, "finite difference gradients"):
        t0 = time.perf_counter()
        step, tol = 1e-5, 1e-4

        for kind in SURROGATES:
            for i in range(50):
                rng = np.random.default_rng(2_000_000 + i)
                while True:
                    a = rng.random(int(rng.integers(2, 9)))
                    b = rng.random(int(rng.integers(2, 9)))
                    if kind != "hinge" or np.min(np.abs(a[:, None] - b[None, :] - 1.0)) > 1e-3:
                        break
                res = pair_loss(a, b, kind)
                x = np.concatenate([a, b])
                fd = fd_gradient(lambda v: pair_loss(v[: len(a)], v[len(a):], kind).loss, x, step)
                assert grad_close(np.concatenate([res.grad_pos, res.grad_neg]), fd, tol)

        for loss_fn, ref_mode in ((ovo_auc_loss, "ovo"), (ova_auc_loss, "ova")):
            for i in range(50):
                kind = SURROGATES[i % len(SURROGATES)]
                rng = np.random.default_rng(2_100_000 + i)
                while True:
                    scores, labels = random_labeled_scores(rng, 3, [(3, 3), (3, 3)])
                    if kind != "hinge" or min_hinge_margin_gap(scores, labels) > 1e-3:
                        break
                shape = scores[0].scores.shape
                sizes = [s.scores.size for s in scores]

                def f(v):
                    parts = np.split(v, np.cumsum(sizes)[:-1])
                    grids = [ScoreGrid(scores=p.reshape(shape)) for p in parts]
                    return loss_fn(grids, labels, kind=kind).loss

                x = np.concatenate([s.scores.ravel() for s in scores])
                rep = loss_fn(scores, labels, kind=kind)
                analytic = np.concatenate([g.ravel() for g in rep.gradients])
                assert grad_close(analytic, fd_gradient(f, x, step), tol), (ref_mode, kind, i)

        for i in range(50):
            rng = np.random.default_rng(2_200_000 + i)
            while True:
                scores, labels = random_labeled_scores(rng, 3, [(3, 3)])
                # keep well away from the log clamp
                if float(scores[0].scores.min()) > 1e-3:
                    break
            shape = scores[0].scores.shape

            def fce(v):
                return ce_loss([ScoreGrid(scores=v.reshape(shape))], labels).loss

            rep = ce_loss(scores, labels)
            fd = fd_gradient(fce, scores[0].scores.ravel().copy(), step)
            assert grad_close(rep.gradients[0].ravel(), fd, tol)

        for i in range(50):
            rng = np.random.default_rng(2_300_000 + i)
            logits = rng.normal(size=(5, 4))
            w = rng.normal(size=(5, 4))

            def fs(v):
                return float(np.sum(softmax(v.reshape(5, 4)) * w))

            analytic = softmax_backward(softmax(logits), w)
            assert grad_close(analytic, fd_gradient(fs, logits.ravel().copy(), step), tol)

        for i in range(50):
            rng = np.random.default_rng(2_400_000 + i)
            channels, k = 2, 3
            while True:
                feats, labs = [], []
                for _ in range(2):
                    f = rng.normal(size=(3, 3, channels)).astype(np.float32)
                    l = rng.integers(0, k, size=(3, 3)).astype(np.int32)
                    feats.append(FeatureGrid(values=f))
                    labs.append(LabelGrid(labels=l, num_classes=k))
                present = np.unique(np.concatenate([l.labels.ravel() for l in labs]))
                if len(present) >= 2:
                    break
            batch = Batch(items=tuple(zip(feats, labs)))
            n_w = channels * k

            def fpipe(v):
                model = PixelModel(weights=v[:n_w].reshape(channels, k).copy(),
                                   bias=v[n_w:].copy())
                scores = forward(model, feats)
                return combined_loss(scores, labs, kind="square", mode="ovo", lam=0.25).loss

            model = init_model(channels, k, seed=i)
            scores = forward(model, feats)
            rep = combined_loss(scores, labs, kind="square", mode="ovo", lam=0.25)
            dw, db = _backward(model, batch, scores, rep.gradients)
            analytic = np.concatenate([dw.ravel(), db.ravel()])
            x = np.concatenate([model.weights.ravel(), model.bias.ravel()])
            assert grad_close(analytic, fd_gradient(fpipe, x, step), tol)

        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, "gradient checks took %.1fs" % elapsed


# 3 ------------------------------------------------------------------------

def test_batch_losses_match_brute_force(capfd):
    with criterion(capfd, 3, "brute force equivalence"):
        case = 0
        for kind in SURROGATES:
            for pair_norm in ("union", "original"):
                for rep in range(6):
                    rng = np.random.default_rng(3_000_000 + case)
                    case += 1
                    k = int(rng.integers(2, 5))
                    h = int(rng.integers(3, 6))
                    w = int(rng.integers(3, 6))
                    scores, labels = random_labeled_scores(
                        rng, k, [(h, w), (h, w)], ignore_frac=0.1)
                    assert sum(l.labels.size for l in labels) <= 64
                    pasted = None
                    if rep % 2 == 1:
                        pasted = tuple(rng.random((h, w)) < 0.25 for _ in labels)
                    got = ovo_auc_loss(scores, labels, kind=kind,
                                       pasted=pasted, pair_norm=pair_norm)
                    want, want_g = ovo_ref([s.scores for s in scores],
                                           [l.labels for l in labels], kind,
                                           pasted=pasted, pair_norm=pair_norm)
                    assert rel_close(got.loss, want, 1e-12), (kind, pair_norm, rep)
                    for ga, gb in zip(got.gradients, want_g):
                        assert grad_close(ga, gb, 1e-9)
                    got = ova_auc_loss(scores, labels, kind=kind,
                                       pasted=pasted, pair_norm=pair_norm)
                    want, want_g = ova_ref([s.scores for s in scores],
                                           [l.labels for l in labels], kind,
                                           pasted=pasted, pair_norm=pair_norm)
                    assert rel_close(got.loss, want, 1e-12), (kind, pair_norm, rep)
                    for ga, gb in zip(got.gradients, want_g):
                        assert grad_close(ga, gb, 1e-9)

        # one augmented batch produced by the real store/retrieve path
        rng = np.random.default_rng(3_900_000)
        donor_lab = np.zeros((6, 6), dtype=np.int32)
        donor_lab[1:4, 1:5] = 2
        donor = (FeatureGrid(values=rng.random((6, 6, 2)).astype(np.float32)),
                 LabelGrid(labels=donor_lab, num_classes=3))
        bank = TailMemoryBank(BankConfig(sample_ratio=1.0, resize_ratio=1.0),
                              tail_classes=(2,), seed=11)
        bank.store(Batch(items=(donor,)))
        target_lab = rng.integers(0, 2, size=(6, 6)).astype(np.int32)
        target = (FeatureGrid(values=rng.random((6, 6, 2)).astype(np.float32)),
                  LabelGrid(labels=target_lab, num_classes=3))
        out = bank.retrieve_and_paste(Batch(items=(target,)))
        assert out.records, "paste did not happen; the fixture is broken"
        scores = [ScoreGrid(scores=rng.random((6, 6, 3)))]
        labels = [lab for _, lab in out.batch]
        for pair_norm in ("union", "original"):
            got = ovo_auc_loss(scores, labels, kind="square",
                               pasted=out.pasted_masks, pair_norm=pair_norm)
            want, _ = ovo_ref([s.scores for s in scores],
                              [l.labels for l in labels], "square",
                              pasted=out.pasted_masks, pair_norm=pair_norm)
            assert rel_close(got.loss, want, 1e-12)


# 4 ------------------------------------------------------------------------

def test_coverage_bound_and_simulation(capfd):
    with criterion(capfd, 4, "coverage bound"):
        t0 = time.perf_counter()
        k, p_min, delta = 19, 0.01, 0.01
        b = required_batch_size(k, p_min, delta)
        assert b == required_b_ref(k, p_min, delta)
        assert b == 752
        assert union_bound(k, p_min, b) <= delta < union_bound(k, p_min, b - 1)

        trials = 100_000
        presence = np.full(k, p_min)
        res = simulate_coverage(presence, b, trials, seed=20240)
        assert res.trials == trials
        se = math.sqrt(delta * (1.0 - delta) / trials)
        assert res.failure_rate <= delta + 3.0 * se
        exact = exact_coverage_failure(presence, b)
        assert abs(res.failure_rate - exact) <= 5.0 * math.sqrt(exact * (1 - exact) / trials)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, "coverage check took %.1fs" % elapsed


# 5 ------------------------------------------------------------------------

def bank_item(rng, k, h=12, w=12, tail=(), channels=2):
    lab = rng.integers(0, 2, size=(h, w)).astype(np.int32)
    for c in tail:
        r0, c0 = int(rng.integers(h - 2)), int(rng.integers(w - 2))
        lab[r0:r0 + 2, c0:c0 + 2] = c
    feats = rng.random((h, w, channels)).astype(np.float32)
    return (FeatureGrid(values=feats), LabelGrid(labels=lab, num_classes=k))


def test_bank_behavior_suite(capfd):
    with criterion(capfd, 5, "memory bank behavior"):
        t0 = time.perf_counter()
        tail = (3, 4)

        # capacity never exceeds memory_size under sustained stores
        for strategy in STRATEGIES:
            cfg = BankConfig(memory_size=2, strategy=strategy)
            bank = TailMemoryBank(cfg, tail, seed=5)
            rng = np.random.default_rng(50)
            for _ in range(12):
                bank.store(Batch(items=(bank_item(rng, 5, tail=tail),)))
                for c in tail:
                    assert bank.store_size(c) <= cfg.memory_size

        # cold start: retrieve from an empty bank is an identity pass
        bank = TailMemoryBank(BankConfig(), tail, seed=0)
        rng = np.random.default_rng(51)
        batch = Batch(items=(bank_item(rng, 5),))
        out = bank.retrieve_and_paste(batch)
        assert out.batch is batch and out.records == () and out.skipped == ()

        # paste purity and label consistency, single paste so no overlap
        cfg = BankConfig(sample_ratio=0.01, resize_ratio=0.5)
        bank = TailMemoryBank(cfg, tail, seed=6)
        rng = np.random.default_rng(52)
        bank.store(Batch(items=(bank_item(rng, 5, tail=tail),)))
        target = Batch(items=(bank_item(rng, 5), bank_item(rng, 5)))
        out = bank.retrieve_and_paste(target)
        assert len(out.records) == 1 and not out.skipped
        rec = out.records[0]
        for i, ((f_new, l_new), (f_old, l_old)) in enumerate(zip(out.batch, target)):
            mask = out.pasted_masks[i]
            assert np.array_equal(f_new.values[~mask], f_old.values[~mask])
            assert np.array_equal(l_new.labels[~mask], l_old.labels[~mask])
            if i == rec.image_index:
                assert mask.any()
                assert np.all(l_new.labels[mask] == rec.class_id)
                rows, cols = np.nonzero(mask)
                assert rows.min() >= rec.row and rows.max() < rec.row + rec.height
                assert cols.min() >= rec.col and cols.max() < rec.col + rec.width
            else:
                assert not mask.any()

        # sample count follows ceil(|missing| * ratio), capped by |missing|
        for ratio, missing, expect in ((0.05, 3, 1), (0.5, 3, 2), (1.0, 3, 3),
                                       (0.4, 2, 1), (1.0, 1, 1)):
            tail_n = tuple(range(2, 2 + missing))
            bank = TailMemoryBank(BankConfig(sample_ratio=ratio), tail_n, seed=7)
            rng = np.random.default_rng(53)
            bank.store(Batch(items=(bank_item(rng, 2 + missing, tail=tail_n),)))
            out = bank.retrieve_and_paste(Batch(items=(bank_item(rng, 2 + missing),)))
            assert len(out.records) + len(out.skipped) == expect
            assert not out.skipped

        # a drawn class with an empty store consumes its slot
        bank = TailMemoryBank(BankConfig(sample_ratio=1.0), (2, 3), seed=8)
        rng = np.random.default_rng(54)
        bank.store(Batch(items=(bank_item(rng, 4, tail=(2,)),)))
        out = bank.retrieve_and_paste(Batch(items=(bank_item(rng, 4),)))
        assert len(out.records) + len(out.skipped) == 2
        assert out.skipped == (3,)

        # seeded replay: identical history on every strategy
        for strategy in STRATEGIES:
            logs = []
            for _ in range(2):
                cfg = BankConfig(memory_size=2, sample_ratio=1.0, strategy=strategy)
                bank = TailMemoryBank(cfg, tail, seed=9)
                rng = np.random.default_rng(55)
                log = []
                for step in range(8):
                    bank.store(Batch(items=(bank_item(rng, 5, tail=tail),)))
                    out = bank.retrieve_and_paste(Batch(items=(bank_item(rng, 5),)))
                    log.append((out.records, out.skipped,
                                tuple(p.features.tobytes()
                                      for c in tail for p in bank.patches(c))))
                logs.append(log)
            assert logs[0] == logs[1], strategy

        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, "bank suite took %.1fs" % elapsed


# 6 ------------------------------------------------------------------------

def test_auc_with_bank_beats_ce_on_tail(capfd):
    with criterion(capfd, 6, "directional tail improvement"):
        t0 = time.perf_counter()
        presence = (1.0,) * 8 + (0.05,) * 4

        def tail_miou(items, objective, seed):
            cfg = TrainConfig(surrogate="square", objective=objective,
                              base_lr=1.0, max_iter=600, warmup_iters=60,
                              batch_size=8, eval_every=600,
                              head_count=4, middle_count=4, seed=seed)
            return train(items, cfg).evals[-1].tail_miou

        auc_scores, ce_scores = [], []
        for i in range(5):
            gen = GenConfig(num_classes=12, height=48, width=48, channels=6,
                            images=400, zipf_s=1.2, presence=presence,
                            shapes_per_class=2, feature_noise_sigma=0.35,
                            seed=1000 + i)
            items, _ = generate(gen)
            auc_scores.append(tail_miou(items, "auc_ce", i))
            ce_scores.append(tail_miou(items, "ce", i))

        wins = sum(a > c for a, c in zip(auc_scores, ce_scores))
        assert wins >= 4, "auc %r vs ce %r" % (auc_scores, ce_scores)
        assert np.mean(auc_scores) > np.mean(ce_scores)
        elapsed = time.perf_counter() - t0
        assert elapsed < 900.0, "directional run took %.1fs" % elapsed


# 7 ------------------------------------------------------------------------

def test_metric_oracles(capfd):
    with criterion(capfd, 7, "metric oracles"):
        for i in range(100):
            rng = np.random.default_rng(7_000_000 + i)
            k = int(rng.integers(2, 5))
            shapes = [(int(rng.integers(2, 6)), int(rng.integers(2, 6)))
                      for _ in range(int(rng.integers(1, 3)))]
            # coarse score grid forces ties, exercising the half-credit rule
            scores, labels = random_labeled_scores(rng, k, shapes,
                                                   quantize=4, ignore_frac=0.1)
            got = ovo_auc_metric(scores, labels)
            want = auc_metric_ref([s.scores for s in scores],
                                  [l.labels for l in labels])
            assert got == want, i

        for pred, true, k, per_class, mean in IOU_FIXTURES:
            preds = [LabelGrid(labels=np.asarray(pred, dtype=np.int32), num_classes=k)]
            trues = [LabelGrid(labels=np.asarray(true, dtype=np.int32), num_classes=k)]
            rep = iou_report(preds, trues)
            ref = iou_ref([np.asarray(pred)], [np.asarray(true)], k)
            assert np.allclose(rep.per_class, per_class, equal_nan=True)
            assert np.allclose(rep.per_class, ref, equal_nan=True)
            assert rep.mean_iou == pytest.approx(mean)

        # imbalance indicators recomputed from raw labels, exact
        items, _ = generate(GenConfig(num_classes=6, height=12, width=12,
                                      channels=2, images=8, zipf_s=1.1,
                                      shapes_per_class=2, seed=70))
        labels = [lab for _, lab in items]
        stats = class_stats(labels)
        counts = np.stack([
            np.bincount(lab.labels[lab.labels != IGNORE].ravel(), minlength=6)
            for lab in labels
        ])
        assert np.array_equal(stats.per_image_counts, counts)
        for mean_normalized in (False, True):
            assert compute_tau(stats, mean_normalized=mean_normalized) == \
                tau_ref(counts, mean_normalized=mean_normalized)
        occ = [c for c in range(6) if stats.count[c] > 0]
        head = tuple(occ[:2])
        assert imbalance_ratio(stats, head) == rm_ref(stats.count, head)

        for i in range(20):
            rng = np.random.default_rng(7_500_000 + i)
            rows = rng.integers(0, 40, size=(int(rng.integers(1, 5)), 4))
            rows[0, 0] += 1  # keep at least one nonzero column
            stats = ClassStats(per_image_counts=rows.astype(np.int64), num_classes=4)
            for mean_normalized in (False, True):
                assert compute_tau(stats, mean_normalized=mean_normalized) == \
                    tau_ref(rows, mean_normalized=mean_normalized)

        worked = ClassStats(per_image_counts=np.array([[100, 1, 10]], dtype=np.int64),
                            num_classes=3)
        assert imbalance_ratio(worked, (0,)) == 55.0


# 8 ------------------------------------------------------------------------

def test_determinism_and_formats(capfd, tmp_path):
    with criterion(capfd, 8, "determinism and file formats"):
        items, _ = generate(GenConfig(num_classes=4, height=16, width=16,
                                      channels=3, images=30, zipf_s=1.0,
                                      feature_noise_sigma=0.1, seed=77))
        cfg = TrainConfig(max_iter=40, eval_every=10, batch_size=4,
                          head_count=1, middle_count=1, seed=5)

        outs = {}
        for name in ("a", "b"):
            train_and_save(items, cfg, tmp_path / name)
            outs[name] = (tmp_path / name / "metrics.csv").read_bytes()
        assert outs["a"] == outs["b"]

        data = tmp_path / "round.segd"
        write_segd(data, items)
        back = read_segd(data)
        assert len(back) == len(items)
        for (f0, l0), (f1, l1) in zip(items, back):
            assert f0.values.tobytes() == f1.values.tobytes()
            assert np.array_equal(l0.labels, l1.labels)
        twice = tmp_path / "round2.segd"
        write_segd(twice, back)
        assert data.read_bytes() == twice.read_bytes()

        model = init_model(3, 4, seed=9)
        mpath = tmp_path / "m.segm"
        save_model(mpath, model)
        loaded = load_model(mpath)
        assert np.array_equal(loaded.weights,
                              model.weights.astype(np.float32).astype(np.float64))
        mpath2 = tmp_path / "m2.segm"
        save_model(mpath2, loaded)
        assert mpath.read_bytes() == mpath2.read_bytes()

        for path, loader in ((data, read_segd), (mpath, load_model)):
            blob = bytearray(path.read_bytes())
            bad = tmp_path / ("bad" + path.suffix)
            bad.write_bytes(b"XXXX" + bytes(blob[4:]))
            with pytest.raises(FormatError) as e:
                loader(bad)
            assert e.value.offset == 0
            bad.write_bytes(bytes(blob[:4]) + b"\xff\xff\xff\xff" + bytes(blob[8:]))
            with pytest.raises(FormatError) as e:
                loader(bad)
            assert e.value.offset == 4
            bad.write_bytes(bytes(blob[: len(blob) // 2]))
            with pytest.raises(FormatError):
                loader(bad)
