import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aucseg import (IGNORE, ClassStats, GenConfig, Partition, ValidationError,
                    argmax_labels, compute_tau, forward, generate,
                    imbalance_ratio, init_model, iou_report, make_partition,
                    ovo_auc_metric, softmax)
from aucseg.metrics import auto_partition

from _oracles import (IOU_FIXTURES, auc_metric_ref, iou_ref,
                      ovo_auc_metric_argsort, rm_ref, tau_ref)

RNG = np.random.default_rng


def stats_from_counts(rows):
    return ClassStats(per_image_counts=np.array(rows, dtype=np.int64),
                      num_classes=len(rows[0]))


# ------------------------------------------------------------------- rank AUC

def two_class_auc(pos, neg):
    """ovo_auc_metric of a class-0 vs class-1 split whose channel 1 mirrors channel 0.

    Both ordered pairs then rank alike, so the metric is the one pair's AUC.
    """
    s0 = np.array(pos + neg, dtype=np.float64)
    scores = [np.stack([s0, 1.0 - s0], axis=-1)[None]]
    labels = [np.array([[0] * len(pos) + [1] * len(neg)], dtype=np.int32)]
    return ovo_auc_metric(scores, labels)


def test_midranks_with_ties():
    # midranks of [.3, .5 | .1, .3] are [2.5, 4 | 1, 2.5]: U = 6.5 - 3
    assert two_class_auc([0.3, 0.5], [0.1, 0.3]) == 0.875
    # all tied: midranks [2 | 2, 2], U = 2 - 1, every pair is half a win
    assert two_class_auc([1.0], [1.0, 1.0]) == 0.5


def test_rank_auc_hand_values():
    assert two_class_auc([0.7, 0.6], [0.4, 0.3]) == 1.0
    assert two_class_auc([0.3], [0.7]) == 0.0
    # ties count half: pos [.5,.5] vs neg [.5,.2] -> (0.5+1+0.5+1)/4
    assert two_class_auc([0.5, 0.5], [0.5, 0.2]) == 0.75


def test_ovo_metric_perfect_separation():
    labels = [np.array([[0, 0, 1, 1]], dtype=np.int32)]
    scores = [np.array([[[0.7, 0.3], [0.6, 0.4], [0.4, 0.6], [0.3, 0.7]]])]
    assert ovo_auc_metric(scores, labels) == 1.0


def test_ovo_metric_equals_pair_counting_oracle():
    rng = RNG(17)
    # the last batch mixes image sizes, so each channel is gathered in pooled pixel order
    for shapes in [((3, 4), (3, 4))] * 12 + [((3, 4), (2, 5))]:
        k = int(rng.integers(2, 5))
        labels = [rng.integers(0, k, size=shape).astype(np.int32) for shape in shapes]
        if len(np.unique(np.concatenate([l.ravel() for l in labels]))) < 2:
            continue
        # quantized scores force plenty of exact ties
        scores = [np.round(softmax(rng.standard_normal(shape + (k,))), 1) for shape in shapes]
        assert ovo_auc_metric(scores, labels) == auc_metric_ref(scores, labels)


def batch_with_counts(rng, shapes, counts, quantum):
    """Softmax scores over images of the given shapes, exactly counts[c] pixels
    of class c scattered among them, every other pixel IGNORE.

    Scores are rounded to multiples of quantum (None: left exact), and
    channel 2 is one constant, so every pair it scores is a tie.
    """
    k = len(counts)
    sizes = [h * w for h, w in shapes]
    pooled = np.full(sum(sizes), IGNORE, dtype=np.int32)
    pooled[:sum(counts)] = np.repeat(np.arange(k), counts)
    rng.shuffle(pooled)
    labels = [part.reshape(shape) for part, shape in zip(np.split(pooled, np.cumsum(sizes)[:-1]), shapes)]
    scores = []
    for h, w in shapes:
        s = softmax(2.0 * rng.standard_normal((h, w, k)))
        if quantum is not None:
            s = np.round(s / quantum) * quantum
        s[..., 2] = 0.25
        scores.append(s)
    return scores, labels


@pytest.mark.parametrize("quantum", [None, 0.01, 0.1])
@pytest.mark.parametrize("seed", [0, 1])
def test_ovo_metric_matches_argsort_reference(seed, quantum):
    # class 0 meets the smaller class 1 (searched into from 1's side) and the
    # equal-sized class 2 (P == Q); class 3 is one pixel; slot 4 never occurs;
    # 171 pixels are IGNORE; the three images differ in size
    rng = RNG(seed)
    scores, labels = batch_with_counts(rng, [(20, 30), (17, 11), (9, 25)], [400, 40, 400, 1, 0], quantum)
    assert ovo_auc_metric(scores, labels) == ovo_auc_metric_argsort(scores, labels)


def test_ovo_metric_matches_argsort_reference_on_generated_k19():
    presence = (1.0,) * 13 + (0.05,) * 6
    items, _ = generate(GenConfig(num_classes=19, height=32, width=32, channels=6, images=40,
                                  zipf_s=1.2, presence=presence, feature_noise_sigma=0.35, seed=4))
    scores = forward(init_model(6, 19, seed=1), [f for f, _ in items])
    labels = [l for _, l in items]
    assert ovo_auc_metric(scores, labels) == ovo_auc_metric_argsort(scores, labels)


@pytest.mark.parametrize("seed", range(4))
def test_ovo_metric_counts_ties_at_zero_and_one_and_keys_past_a_segment(seed):
    # saturated scores: most entries are exactly 0.0 or 1.0, so the searched
    # keys tie in runs; class 0 scores 2.0 on its own channel, above every
    # other class's channel-0 score, so its keys land past the end of those
    # segments, and class 3 scores -1.0 there, before their start. Class
    # sizes are unequal, so both search directions run.
    rng = RNG(90 + seed)
    k = 4
    labels = [rng.choice([0, 1, 1, 2, 2, 2, 3, IGNORE], size=(6, 7)).astype(np.int32) for _ in range(3)]
    scores = []
    for lab in labels:
        s = rng.choice([0.0, 0.0, 1.0, 1.0, 0.5, rng.random()], size=lab.shape + (k,))
        s[..., 0] = np.where(lab == 0, 2.0, np.where(lab == 3, -1.0, s[..., 0]))
        scores.append(s)
    want = auc_metric_ref(scores, labels)
    assert ovo_auc_metric(scores, labels) == want
    planes = [np.moveaxis(np.moveaxis(s, -1, 0).copy(), 0, -1) for s in scores]  # the package's layout
    assert ovo_auc_metric(planes, labels) == want


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ovo_metric_equals_pair_counting_oracle_property(data):
    k = data.draw(st.integers(2, 4))
    width = data.draw(st.integers(2, 12))
    labels = data.draw(st.lists(st.integers(IGNORE, k - 1), min_size=width, max_size=width))
    assume(len(set(labels) - {IGNORE}) >= 2)
    # four score levels over at most 48 entries: most comparisons are ties
    values = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=width * k, max_size=width * k))
    scores = [np.array(values, dtype=np.float64).reshape(1, width, k)]
    labels = [np.array([labels], dtype=np.int32)]
    assert ovo_auc_metric(scores, labels) == auc_metric_ref(scores, labels)


def test_ovo_metric_requires_two_classes():
    with pytest.raises(ValidationError):
        ovo_auc_metric([np.ones((1, 2, 3))], [np.zeros((1, 2), dtype=np.int32)])


def test_argmax_ties_take_smaller_class():
    scores = [np.array([[[0.4, 0.4, 0.2], [0.1, 0.45, 0.45]]])]
    assert argmax_labels(scores)[0].tolist() == [[0, 1]]


@pytest.mark.parametrize("k", [1, 2, 5, 19, 64])
def test_argmax_matches_numpy_on_both_layouts_with_ties(k):
    rng = RNG(k)
    s = rng.choice([0.0, -0.0, 0.5, 1.0, rng.random()], size=(7, 9, k))  # ties everywhere, signed zeros
    want = s.argmax(axis=-1)
    planes = np.moveaxis(np.moveaxis(s, -1, 0).copy(), 0, -1)
    for scores in (s, planes):
        got = argmax_labels([scores])[0]
        assert got.dtype == np.int32 and np.array_equal(got, want)


def test_argmax_rejects_non_finite_plain_scores():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError):  # NaN used to come back as class 0
            argmax_labels([[[bad, 1.0]]])


# ------------------------------------------------------------------------ IoU

@pytest.mark.parametrize("case", range(len(IOU_FIXTURES)))
def test_iou_fixtures(case):
    pred, true, k, per_class, mean = IOU_FIXTURES[case]
    report = iou_report([np.array(pred, dtype=np.int32)],
                        [np.array(true, dtype=np.int32)])
    for got, want in zip(report.per_class, per_class):
        if np.isnan(want):
            assert np.isnan(got)
        else:
            assert abs(got - want) < 1e-12
    assert abs(report.mean_iou - mean) < 1e-12


def test_iou_matches_loop_oracle_on_random_instances():
    rng = RNG(29)
    for _ in range(10):
        k = int(rng.integers(2, 6))
        true = [rng.integers(0, k, size=(5, 5)).astype(np.int32) for _ in range(3)]
        pred = [rng.integers(0, k, size=(5, 5)).astype(np.int32) for _ in range(3)]
        true[0][rng.integers(5), rng.integers(5)] = IGNORE
        ref = iou_ref(pred, true, k)
        got = iou_report(pred, true).per_class
        for g, r in zip(got, ref):
            assert (np.isnan(g) and np.isnan(r)) or abs(g - r) < 1e-12


def test_iou_group_means():
    pred = [np.array([[0, 1], [2, 2]], dtype=np.int32)]
    true = [np.array([[0, 1], [2, 1]], dtype=np.int32)]
    stats = stats_from_counts([[5, 3, 1]])
    part = make_partition(stats, 1, 1)
    report = iou_report(pred, true, part)
    assert set(report.group_means) == {"head", "middle", "tail"}
    assert report.group_means["head"] == 1.0


def test_iou_plain_labels_must_be_class_ids_or_ignore():
    with pytest.raises(ValidationError):  # truncated to 0 and 1, it scored 1.0
        iou_report([[[0.7, 1.2]]], [[[0.5, 1.0]]])
    with pytest.raises(ValidationError):
        iou_report([np.array([[0, 1]])], [np.array([[-2, 1]])])
    assert iou_report([np.array([[0, 1]])], [np.array([[IGNORE, 1]])]).mean_iou == 1.0


def test_iou_partition_must_name_classes_below_k():
    # plain labels infer K = 2 from the largest label; class 2 used to raise IndexError
    with pytest.raises(ValidationError):
        iou_report([[[0, 1]]], [[[0, 1]]], Partition((0,), (1,), (2,)))
    with pytest.raises(ValidationError):
        iou_report([[[0, 1]]], [[[0, 1]]], Partition((0,), (-1,), (1,)))


def test_iou_shape_mismatch_errors():
    with pytest.raises(ValidationError):
        iou_report([np.zeros((2, 2), dtype=np.int32)], [np.zeros((2, 3), dtype=np.int32)])


# -------------------------------------------------------------------- partition

def test_make_partition_by_descending_count():
    stats = stats_from_counts([[10, 50, 5, 0, 20]])
    part = make_partition(stats, 1, 2)
    assert part.head == (1,)
    assert part.middle == (0, 4)
    assert part.tail == (2,)


def test_make_partition_tie_breaks_toward_smaller_id():
    stats = stats_from_counts([[7, 7, 7]])
    part = make_partition(stats, 1, 1)
    assert part.head == (0,) and part.middle == (1,) and part.tail == (2,)


def test_make_partition_requires_nonempty_tail():
    stats = stats_from_counts([[10, 5, 1]])
    with pytest.raises(ValidationError):
        make_partition(stats, 2, 1)


@pytest.mark.parametrize("fn", [make_partition, auto_partition], ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("counts", [(1.5, 0), (1, 1.0), (1, 0.5)])
def test_partition_counts_must_be_integers(fn, counts):
    # 1.5 must not reach the slicing as a bare TypeError, nor 1.0 or 0.5 pass
    with pytest.raises(ValidationError):
        fn(stats_from_counts([[40, 30, 20, 10, 5]]), *counts)


# ------------------------------------------------------------------ imbalance

def test_tau_hand_example():
    stats = stats_from_counts([[4, 1], [2, 1]])
    # class 0: 4/6, class 1: 1/2 -> tau = (2/3)^2
    assert compute_tau(stats) == float(4) / 9
    # mean-normalized: class 0 -> (4 / 3)^2
    assert compute_tau(stats, mean_normalized=True) == float(16) / 9


def test_tau_matches_exact_oracle():
    rng = RNG(31)
    for _ in range(10):
        counts = rng.integers(0, 50, size=(4, 5))
        counts[:, 0] += 1  # keep at least one occurring class
        stats = ClassStats(per_image_counts=counts.astype(np.int64), num_classes=5)
        assert compute_tau(stats) == tau_ref(counts)
        assert compute_tau(stats, mean_normalized=True) == tau_ref(counts, mean_normalized=True)


def test_tau_single_image_is_one():
    stats = stats_from_counts([[9, 4, 2]])
    assert compute_tau(stats) == 1.0


def test_imbalance_ratio_worked_example():
    stats = stats_from_counts([[100, 1, 10]])
    assert imbalance_ratio(stats, [0]) == 55.0


def test_imbalance_ratio_matches_exact_oracle():
    rng = RNG(37)
    for _ in range(10):
        counts = rng.integers(1, 500, size=6)
        head = [0, 1]
        stats = stats_from_counts([counts.tolist()])
        assert imbalance_ratio(stats, head) == rm_ref(counts, head)


def test_imbalance_ratio_validation():
    stats = stats_from_counts([[10, 0, 5]])
    with pytest.raises(ValidationError):
        imbalance_ratio(stats, [1])  # head class without pixels
    with pytest.raises(ValidationError):
        imbalance_ratio(stats, [])
    solo = stats_from_counts([[10, 0, 0]])
    with pytest.raises(ValidationError):
        imbalance_ratio(solo, [0])  # nothing left outside the head
    # head ids outside [0, K): -1 must not read the last class's count
    for head in ([-1], [3], [0, -3], [0, 7]):
        with pytest.raises(ValidationError):
            imbalance_ratio(stats_from_counts([[10, 3, 5]]), head)


def test_imbalance_ratio_head_ids_must_be_integers():
    # truncated, 0.7 would read as head 0 and give 55.0
    stats = stats_from_counts([[100, 1, 10]])
    assert imbalance_ratio(stats, [np.int64(0)]) == 55.0
    for head in ([0.7], [0, 2.0]):
        with pytest.raises(ValidationError):
            imbalance_ratio(stats, head)
