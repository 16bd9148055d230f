import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aucseg import (IGNORE, LabelGrid, NumericalError, ScoreGrid,
                    ValidationError, ce_loss, combined_loss, losses,
                    ova_auc_loss, ovo_auc_loss, ovo_auc_metric, pair_loss,
                    pair_loss_naive, softmax, softmax_backward)
from aucseg.losses import SURROGATES

from _oracles import ce_ref, fd_gradient, ova_ref, ovo_ref, pair_loss_ref

RNG = np.random.default_rng


def rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def grad_close(ga, gb, tol):
    ga = np.asarray(ga, dtype=np.float64).ravel()
    gb = np.asarray(gb, dtype=np.float64).ravel()
    return np.linalg.norm(ga - gb) <= tol * max(1.0, np.linalg.norm(ga), np.linalg.norm(gb))


@pytest.fixture
def sort_path(monkeypatch):
    """Calls that reach the hinge sort path, one entry each."""
    calls = []
    real = losses._hinge_pairs

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(losses, "_hinge_pairs", spy)
    return calls


# ---------------------------------------------------------------- pair kernels

def test_square_hand_example():
    # pairs (0.8, 0.7, 0.7, 0.6) -> residuals (0.2, 0.3, 0.3, 0.4)
    res = pair_loss([0.9, 0.8], [0.1, 0.2], "square")
    assert rel_close(res.loss, 0.095, 1e-12)


def test_hinge_hand_example_and_exact_rationals():
    res = pair_loss([0.9, 0.8], [0.1, 0.2], "hinge")
    assert rel_close(res.loss, 0.3, 1e-12)
    assert np.allclose(res.grad_pos, [-0.5, -0.5])
    # dyadic rationals sum exactly
    assert pair_loss([0.5], [0.25], "hinge").loss == 0.75
    assert pair_loss_naive([0.5], [0.25], "hinge").loss == 0.75


def test_hinge_kink_subgradient_is_zero():
    # a - b == 1 exactly: the pair sits at the kink and must contribute nothing
    for fn in (pair_loss, pair_loss_naive):
        res = fn([1.0], [0.0], "hinge")
        assert res.loss == 0.0
        assert res.grad_pos[0] == 0.0
        assert res.grad_neg[0] == 0.0


def test_exp_factorization_identity():
    a = [0.0, 0.0]
    b = [0.0]
    assert pair_loss(a, b, "exp").loss == 1.0
    res = pair_loss([0.9, 0.8], [0.1, 0.2], "exp")
    expect = ((np.exp(-0.9) + np.exp(-0.8)) / 2) * ((np.exp(0.1) + np.exp(0.2)) / 2)
    assert rel_close(res.loss, expect, 1e-15)


def test_exp_is_shifted_before_exponentiating():
    # exp(800) * exp(-800) overflows times underflows; the loss is exactly 1
    res = pair_loss([-800.0], [-800.0], "exp")
    assert res.loss == 1.0
    assert res.grad_pos.tolist() == [-1.0]
    assert res.grad_neg.tolist() == [1.0]


def test_exp_loss_overflow_raises_numerical_error():
    # the loss itself, exp(800), is not representable
    with pytest.raises(NumericalError):
        pair_loss([-800.0], [0.0], "exp")


@pytest.mark.parametrize("kind", SURROGATES)
def test_pair_kernels_match_pure_python_oracle(kind):
    rng = RNG(11)
    for _ in range(40):
        p = int(rng.integers(1, 25))
        n = int(rng.integers(1, 25))
        pos = rng.uniform(-2, 2, p)
        neg = rng.uniform(-2, 2, n)
        ref_loss, ref_gp, ref_gn = pair_loss_ref(pos.tolist(), neg.tolist(), kind)
        for fn in (pair_loss, pair_loss_naive):
            res = fn(pos, neg, kind)
            assert rel_close(res.loss, ref_loss, 1e-11)
            assert grad_close(res.grad_pos, ref_gp, 1e-10)
            assert grad_close(res.grad_neg, ref_gn, 1e-10)


@pytest.mark.parametrize("kind", SURROGATES)
def test_fast_matches_naive_on_big_uneven_splits(kind, sort_path):
    rng = RNG(7)
    splits = [(rng.uniform(0, 1, p), rng.uniform(0, 1, n))
              for p, n in ((1, 1500), (1500, 1), (700, 1300))]
    # plain scores far wider than the margin: the hinge takes its sort path
    splits.append((3 * rng.standard_normal(900), 3 * rng.standard_normal(1100)))
    for pos, neg in splits:
        fast = pair_loss(pos, neg, kind)
        naive = pair_loss_naive(pos, neg, kind)
        assert rel_close(fast.loss, naive.loss, 1e-9)
        assert grad_close(fast.grad_pos, naive.grad_pos, 1e-9)
        assert grad_close(fast.grad_neg, naive.grad_neg, 1e-9)
    assert len(sort_path) == (kind == "hinge")


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.floats(-3, 3), min_size=1, max_size=40),
    st.lists(st.floats(-3, 3), min_size=1, max_size=40),
    st.sampled_from(SURROGATES),
)
def test_fast_naive_equivalence_property(pos, neg, kind):
    fast = pair_loss(pos, neg, kind)
    naive = pair_loss_naive(pos, neg, kind)
    assert rel_close(fast.loss, naive.loss, 1e-9)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-2, 2), min_size=1, max_size=20),
    st.lists(st.floats(-2, 2), min_size=1, max_size=20),
    st.floats(-5, 5),
    st.sampled_from(SURROGATES),
)
def test_loss_depends_only_on_score_differences(pos, neg, shift, kind):
    base = pair_loss(pos, neg, kind).loss
    moved = pair_loss([x + shift for x in pos], [x + shift for x in neg], kind).loss
    assert rel_close(base, moved, 1e-9)


@pytest.mark.parametrize("kind", SURROGATES)
def test_pair_gradients_against_finite_differences(kind):
    rng = RNG(23)
    done = 0
    while done < 10:
        pos = rng.uniform(-1.5, 1.5, 6)
        neg = rng.uniform(-1.5, 1.5, 5)
        if kind == "hinge":
            margins = np.abs(pos[:, None] - neg[None, :] - 1.0)
            if margins.min() <= 1e-3:
                continue
        res = pair_loss(pos, neg, kind)
        gp = fd_gradient(lambda x: pair_loss(x, neg, kind).loss, pos.copy())
        gn = fd_gradient(lambda x: pair_loss(pos, x, kind).loss, neg.copy())
        assert grad_close(res.grad_pos, gp, 1e-6)
        assert grad_close(res.grad_neg, gn, 1e-6)
        done += 1


def test_pair_loss_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        pair_loss([], [0.1], "square")
    with pytest.raises(ValidationError):
        pair_loss([0.1], [0.2], "logit")
    with pytest.raises(ValidationError):
        pair_loss([np.nan], [0.2], "square")


# ------------------------------------------------------------ pooled batch loss

def _instance(rng, n_images=2, h=3, w=4, k=3, ensure=2):
    """Random batch with at least `ensure` classes present."""
    while True:
        labels = [rng.integers(0, k, size=(h, w)).astype(np.int32) for _ in range(n_images)]
        labels[0][0, 0] = IGNORE
        present = set()
        for lab in labels:
            present |= set(int(v) for v in np.unique(lab) if v != IGNORE)
        if len(present) >= ensure:
            break
    scores = [softmax(rng.standard_normal((h, w, k))) for _ in range(n_images)]
    return scores, labels


def _instances(rng, count):
    """count softmax batches, then one of the same labels with plain scores
    spread far wider than the hinge margin."""
    cases = [_instance(rng) for _ in range(count)]
    scores, labels = cases[-1]
    cases.append(([3 * rng.standard_normal(s.shape) for s in scores], labels))
    return cases


def test_ovo_hand_example():
    # one image, 1x4, classes [0,0,1,1]; both ordered pairs give mean 0.495
    labels = [np.array([[0, 0, 1, 1]], dtype=np.int32)]
    scores = [np.array([[[0.7, 0.3], [0.6, 0.4], [0.4, 0.6], [0.3, 0.7]]])]
    rep = ovo_auc_loss(scores, labels, "square")
    assert rel_close(rep.loss, 0.99, 1e-12)


@pytest.mark.parametrize("kind", SURROGATES)
def test_ovo_matches_triple_loop_oracle(kind, sort_path):
    for scores, labels in _instances(RNG(5), 8):
        ref_loss, ref_grads = ovo_ref(scores, labels, kind)
        rep = ovo_auc_loss(scores, labels, kind)
        assert rel_close(rep.loss, ref_loss, 1e-12)
        for g, rg in zip(rep.gradients, ref_grads):
            assert grad_close(g, rg, 1e-11)
    # only the plain-score batch sorts; the softmax ones close over moments
    assert len(sort_path) == (kind == "hinge")


@pytest.mark.parametrize("kind", SURROGATES)
def test_ova_matches_triple_loop_oracle(kind, sort_path):
    for scores, labels in _instances(RNG(6), 6):
        ref_loss, ref_grads = ova_ref(scores, labels, kind)
        rep = ova_auc_loss(scores, labels, kind)
        assert rel_close(rep.loss, ref_loss, 1e-12)
        for g, rg in zip(rep.gradients, ref_grads):
            assert grad_close(g, rg, 1e-11)
    # only the plain-score batch sorts; the softmax ones close over moments
    assert len(sort_path) == (kind == "hinge")


@pytest.mark.parametrize("fn, ref", [(ovo_auc_loss, ovo_ref), (ova_auc_loss, ova_ref)],
                         ids=["ovo", "ova"])
def test_hinge_on_softmax_scores_closes_over_first_moments(fn, ref, monkeypatch):
    # softmax scores lie in [0, 1], so every pair is inside the margin and
    # the hinge is the linear 1 - a + b: the sort path is never needed
    def no_sort(*args):
        raise AssertionError("hinge took the sort path on softmax scores")

    monkeypatch.setattr(losses, "_hinge_pairs", no_sort)
    rng = RNG(31)
    for i in range(4):
        scores, labels = _instance(rng, n_images=3, h=3, w=3, k=4)
        if i % 2:
            # each channel still spans under 1, the array as a whole over 3
            scores = [s + np.arange(4) for s in scores]
        ref_loss, ref_grads = ref(scores, labels, "hinge")
        rep = fn(scores, labels, "hinge")
        assert rel_close(rep.loss, ref_loss, 1e-12)
        for g, rg in zip(rep.gradients, ref_grads):
            assert grad_close(g, rg, 1e-11)


def test_hinge_falls_back_to_sorting_past_the_margin(sort_path):
    # a range of 1.1 leaves the pair (0.9, -0.2) past the margin; at the
    # kink the range is exactly 1, and max 1.0 is not below fl(0.0 + 1.0)
    for pos, neg in (([0.4, 0.9], [-0.2, 0.5]), ([1.0], [0.0])):
        fast = pair_loss(pos, neg, "hinge")
        naive = pair_loss_naive(pos, neg, "hinge")
        assert rel_close(fast.loss, naive.loss, 1e-9)
        assert grad_close(fast.grad_pos, naive.grad_pos, 1e-9)
        assert grad_close(fast.grad_neg, naive.grad_neg, 1e-9)
    assert len(sort_path) == 2
    # one wide channel sends the whole batch down the sort path
    scores, labels = _instance(RNG(32), k=4)
    scores[1][..., 2] = 3 * RNG(33).standard_normal(scores[1].shape[:2])
    ref_loss, ref_grads = ova_ref(scores, labels, "hinge")
    rep = ova_auc_loss(scores, labels, "hinge")
    assert rel_close(rep.loss, ref_loss, 1e-12)
    for g, rg in zip(rep.gradients, ref_grads):
        assert grad_close(g, rg, 1e-11)
    assert len(sort_path) == 3


def test_pooling_across_images_differs_from_per_image_sum():
    # pixels pool over the batch: one class split across two images still
    # forms cross-image pairs, so the batch loss is not the per-image sum
    rng = RNG(9)
    scores, labels = _instance(rng, n_images=2, ensure=3)
    both = ovo_auc_loss(scores, labels, "square").loss
    per_image = 0.0
    for s, l in zip(scores, labels):
        try:
            per_image += ovo_auc_loss([s], [l], "square").loss
        except ValidationError:
            pass
    assert not rel_close(both, per_image, 1e-6)


def test_empty_class_pairs_are_skipped():
    # class 2 never appears: only pairs over {0, 1} contribute
    labels = [np.array([[0, 0], [1, 1]], dtype=np.int32)]
    scores = [softmax(RNG(3).standard_normal((2, 2, 3)))]
    rep = ovo_auc_loss(scores, labels, "square")
    ref_loss, _ = ovo_ref(scores, labels, "square")
    assert rel_close(rep.loss, ref_loss, 1e-12)


def test_degenerate_single_class_batch_raises():
    labels = [np.zeros((2, 2), dtype=np.int32)]
    scores = [softmax(RNG(0).standard_normal((2, 2, 3)))]
    with pytest.raises(ValidationError):
        ovo_auc_loss(scores, labels, "square")
    with pytest.raises(ValidationError):
        ova_auc_loss(scores, labels, "square")


def test_label_grid_class_count_must_match_score_slots():
    lab = LabelGrid(labels=np.zeros((2, 2), dtype=int), num_classes=4)
    sc = ScoreGrid(scores=softmax(RNG(0).standard_normal((2, 2, 3))))
    with pytest.raises(ValidationError):
        ovo_auc_loss([sc], [lab], "square")
    # a raw label array may not name a class beyond the score slots
    with pytest.raises(ValidationError):
        ovo_auc_loss([sc], [np.array([[0, 1], [2, 3]])], "square")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("fn", [ovo_auc_loss, ova_auc_loss, ce_loss, combined_loss, ovo_auc_metric],
                         ids=lambda fn: fn.__name__)
def test_nonfinite_plain_scores_raise(fn, bad):
    labels = [np.array([[0, 1], [2, IGNORE]]), np.array([[1, 2], [0, 0]])]
    scores = [softmax(s) for s in RNG(5).standard_normal((2, 2, 2, 3))]
    scores[1][0, 1, 2] = bad  # in the second image, past the first one's check
    with pytest.raises(ValidationError):
        fn(scores, labels)


@pytest.mark.parametrize("dtype", [np.float64, bool])
@pytest.mark.parametrize("fn", [ovo_auc_loss, ce_loss, ovo_auc_metric], ids=lambda fn: fn.__name__)
def test_non_integer_plain_labels_raise(fn, dtype):
    # 0.7 and True would otherwise be read as the class ids 0 and 1
    labels = [np.array([[0.7, 1.0], [1.0, 0.0]]).astype(dtype)]
    scores = [softmax(RNG(6).standard_normal((2, 2, 2)))]
    with pytest.raises(ValidationError):
        fn(scores, labels)


@pytest.mark.parametrize("pair_norm", ["union", "original"])
def test_pasted_pixels_and_normalization_modes(pair_norm):
    # every mode x surrogate runs inside each pair_norm case
    for (fn, ref), kind in itertools.product(((ovo_auc_loss, ovo_ref), (ova_auc_loss, ova_ref)),
                                             SURROGATES):
        rng = RNG(12)
        for _ in range(6):
            scores, labels = _instance(rng, n_images=2, h=3, w=3, k=3)
            pasted = [rng.random((3, 3)) < 0.3 for _ in range(2)]
            ref_loss, ref_grads = ref(scores, labels, kind, pasted=pasted, pair_norm=pair_norm)
            rep = fn(scores, labels, kind, pasted=pasted, pair_norm=pair_norm)
            assert rel_close(rep.loss, ref_loss, 1e-12), (fn.__name__, kind)
            for g, rg in zip(rep.gradients, ref_grads):
                assert grad_close(g, rg, 1e-11), (fn.__name__, kind)


def test_original_norm_skips_fully_pasted_classes():
    # class 1 exists only through pasted pixels: under original-count
    # normalization its pairs are dropped, under union they contribute
    labels = [np.array([[0, 0], [1, 2]], dtype=np.int32)]
    scores = [softmax(RNG(4).standard_normal((2, 2, 3)))]
    pasted = [np.array([[False, False], [True, False]])]
    union = ovo_auc_loss(scores, labels, "square", pasted=pasted, pair_norm="union")
    original = ovo_auc_loss(scores, labels, "square", pasted=pasted, pair_norm="original")
    ref_u, _ = ovo_ref(scores, labels, "square", pasted=pasted, pair_norm="union")
    ref_o, _ = ovo_ref(scores, labels, "square", pasted=pasted, pair_norm="original")
    assert rel_close(union.loss, ref_u, 1e-12)
    assert rel_close(original.loss, ref_o, 1e-12)
    assert not rel_close(union.loss, original.loss, 1e-9)


# -------------------------------------------------------------------- ce, softmax

def test_ce_hand_example_and_clamp():
    scores = [np.array([[[0.7, 0.3], [0.1, 0.9]]])]
    labels = [np.array([[0, 1]], dtype=np.int32)]
    rep = ce_loss(scores, labels)
    expect = -(np.log(0.7) + np.log(0.9)) / 2.0
    assert rel_close(rep.loss, expect, 1e-15)
    # zero probability at the true class hits the clamp, not -inf
    scores = [np.array([[[0.0, 1.0]]])]
    labels = [np.array([[0]], dtype=np.int32)]
    rep = ce_loss(scores, labels)
    assert rel_close(rep.loss, -np.log(1e-12), 1e-12)
    assert np.isfinite(rep.gradients[0]).all()


def test_ce_matches_oracle_and_ignores_ignore():
    rng = RNG(8)
    for _ in range(6):
        scores, labels = _instance(rng)
        ref_loss, ref_grads = ce_ref(scores, labels)
        rep = ce_loss(scores, labels)
        assert rel_close(rep.loss, ref_loss, 1e-12)
        for g, rg in zip(rep.gradients, ref_grads):
            assert grad_close(g, rg, 1e-11)
    with pytest.raises(ValidationError):
        ce_loss([np.ones((1, 1, 2))], [np.full((1, 1), IGNORE, dtype=np.int32)])


def test_softmax_rows_sum_to_one_and_stability():
    rng = RNG(2)
    logits = rng.standard_normal((3, 4, 5)) * 200
    s = softmax(logits)
    assert np.allclose(s.sum(axis=-1), 1.0)
    assert np.isfinite(s).all()
    assert np.allclose(softmax(logits + 7.5), s)


def test_softmax_backward_matches_finite_differences():
    rng = RNG(14)
    for _ in range(5):
        logits = rng.standard_normal((2, 2, 4))
        r = rng.standard_normal((2, 2, 4))
        analytic = softmax_backward(softmax(logits), r)
        fd = fd_gradient(lambda z: float(np.sum(r * softmax(z))), logits.copy())
        assert grad_close(analytic, fd, 1e-6)


def test_combined_loss_parts_and_linearity():
    rng = RNG(19)
    scores, labels = _instance(rng)
    lam = 0.25
    combo = combined_loss(scores, labels, kind="square", mode="ovo", lam=lam)
    auc = ovo_auc_loss(scores, labels, "square")
    ce = ce_loss(scores, labels)
    assert rel_close(combo.loss, auc.loss + lam * ce.loss, 1e-12)
    assert combo.parts == {"auc": auc.loss, "ce": ce.loss}
    for g, ga, gc in zip(combo.gradients, auc.gradients, ce.gradients):
        assert grad_close(g, ga + lam * gc, 1e-12)
    for rep in (combo, auc, ce):
        assert not any(g.flags.writeable for g in rep.gradients)

