"""Evaluation metrics and imbalance diagnostics.

The ranking metric mirrors the training objective: for each ordered pair
of present classes (c, c'), the probability that channel c ranks a
random class-c pixel above a random class-c' pixel (ties count half),
averaged over the pairs actually realized in the data. IoU is computed
from a pooled confusion matrix; classes that never appear in either
prediction or ground truth are left out of the means.

Imbalance numbers: tau is the squared worst-case ratio between a
class's largest single-image pixel count and its summed count over the
dataset (a mean-normalized variant multiplies by the image count);
imbalance_ratio averages head/tail pixel-count ratios over all
(head, non-head) class pairs, as the head total times the sum of the
non-head reciprocals. Both close over the per-class totals in exact
rational arithmetic and convert to float only at the end.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError, require_integer
from .grids import IGNORE, ClassStats, LabelGrid, ScoreGrid, pool_batch


def argmax_labels(score_grids):
    """Per-pixel argmax over class slots; ties go to the smaller class id.

    A plain score array must be finite (a ScoreGrid was checked when built).
    """
    out = []
    for i, s in enumerate(score_grids):
        if isinstance(s, ScoreGrid):
            arr = s.scores
        else:
            arr = np.asarray(s, dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise ValidationError("score grid %d: scores must be finite" % i)
        out.append(arr.argmax(axis=-1).astype(np.int32))
    return out


def ovo_auc_metric(scores, labels) -> float:
    """Mean one-vs-one ranking metric over realized ordered class pairs.

    Pixels are grouped by class once (a stable radix argsort of the
    bins). Per channel c the channel-c column is gathered in that order
    and each class segment is sorted on its own. For an ordered pair
    (c, d), a class-c pixel that channel c scores above a class-d pixel
    counts 2 and a tie 1, so half credit stays exact; the integer sum
    comes from searchsorteds of the smaller of the two sorted segments
    into the larger.
    """
    score_arrays, bins, k, count, _ = pool_batch(scores, labels)
    present = np.flatnonzero(count[:k])
    if present.size < 2:
        raise ValidationError("degenerate batch: AUC undefined with fewer than 2 classes present")
    order = np.argsort(bins.astype(np.int16), kind="stable")
    bounds = np.concatenate([[0], np.cumsum(count)]).tolist()
    total = 0.0
    for c in present:
        grouped = np.concatenate([s[..., c].reshape(-1) for s in score_arrays])[order]
        segments = {d: grouped[bounds[d]:bounds[d + 1]] for d in present}
        for segment in segments.values():
            segment.sort()
        pos = segments[c]
        for d in present:
            if d == c:
                continue
            q = segments[d]
            if pos.size <= q.size:
                doubled = (int(np.searchsorted(q, pos, side="left").sum())
                           + int(np.searchsorted(q, pos, side="right").sum()))
            else:
                doubled = (2 * pos.size * q.size
                           - int(np.searchsorted(pos, q, side="left").sum())
                           - int(np.searchsorted(pos, q, side="right").sum()))
            total += doubled / 2.0 / (pos.size * q.size)  # (c, c') order, one rounding per pair
    return total / (present.size * (present.size - 1))


@dataclass(frozen=True)
class Partition:
    head: tuple
    middle: tuple
    tail: tuple

    def groups(self):
        return {"head": self.head, "middle": self.middle, "tail": self.tail}


def make_partition(stats: ClassStats, head_count: int, middle_count: int) -> Partition:
    """Split the nonzero-count classes into head/middle/tail by pixel count.

    Classes are ranked by descending count (ties toward the smaller id);
    the first head_count are head, the next middle_count are middle, the
    rest are tail. The tail must end up nonempty.
    """
    if require_integer(head_count, "head_count") < 0 or require_integer(middle_count, "middle_count") < 0:
        raise ValidationError("head_count and middle_count must be >= 0")
    counts = stats.count
    ranked = sorted((c for c in range(stats.num_classes) if counts[c] > 0),
                    key=lambda c: (-int(counts[c]), c))
    if head_count + middle_count >= len(ranked):
        raise ValidationError(
            "head %d + middle %d leaves no tail among %d occurring classes"
            % (head_count, middle_count, len(ranked))
        )
    head = tuple(sorted(ranked[:head_count]))
    middle = tuple(sorted(ranked[head_count : head_count + middle_count]))
    tail = tuple(sorted(ranked[head_count + middle_count :]))
    return Partition(head=head, middle=middle, tail=tail)


def auto_partition(stats: ClassStats, head_count: int = 0, middle_count: int = 0) -> Partition:
    """make_partition where a count of 0 means a third of the occurring classes (at least 1)."""
    third = max(1, int(np.sum(stats.count > 0)) // 3)
    return make_partition(stats, require_integer(head_count, "head_count") or third,
                          require_integer(middle_count, "middle_count") or third)


@dataclass(frozen=True)
class IouReport:
    per_class: np.ndarray
    mean_iou: float
    group_means: dict


def iou_report(pred_labels, true_labels, partition: Partition | None = None) -> IouReport:
    """Pooled-confusion IoU per class plus overall and per-group means.

    Classes absent from both prediction and ground truth get NaN and are
    excluded from every mean. Pixels labeled IGNORE are dropped. Plain
    label arrays must hold integers in [0, K) or IGNORE, and a partition
    may name only classes in [0, K).
    """
    preds = [p.labels if isinstance(p, LabelGrid) else np.asarray(p) for p in pred_labels]
    trues = [t.labels if isinstance(t, LabelGrid) else np.asarray(t) for t in true_labels]
    if len(preds) != len(trues) or not preds:
        raise ValidationError("need equal, nonzero numbers of predicted and true grids")
    if not all(np.issubdtype(a.dtype, np.integer) for a in preds + trues):
        raise ValidationError("labels must be integers")
    k = None
    for t in true_labels:
        if isinstance(t, LabelGrid):
            k = t.num_classes
            break
    if k is None:
        k = int(max(int(p.max()) for p in preds + trues)) + 1
    if partition is not None:
        for name, members in partition.groups().items():
            for c in members:
                if not 0 <= c < k:
                    raise ValidationError("partition %s names class %d outside [0, %d)" % (name, c, k))
    confusion = np.zeros((k, k), dtype=np.int64)
    for p, t in zip(preds, trues):
        if p.shape != t.shape:
            raise ValidationError("prediction shape %r != label shape %r" % (p.shape, t.shape))
        valid = t != IGNORE
        tv = t[valid].astype(np.int64)
        pv = p[valid].astype(np.int64)
        if pv.size and (min(pv.min(), tv.min()) < 0 or max(pv.max(), tv.max()) >= k):
            raise ValidationError("labels outside [0, %d) and not IGNORE" % k)
        confusion += np.bincount(tv * k + pv, minlength=k * k).reshape(k, k)
    tp = np.diag(confusion).astype(np.float64)
    gt = confusion.sum(axis=1).astype(np.float64)
    pd = confusion.sum(axis=0).astype(np.float64)
    denom = gt + pd - tp
    per_class = np.full(k, np.nan)
    defined = denom > 0
    per_class[defined] = tp[defined] / denom[defined]
    if not defined.any():
        raise ValidationError("IoU undefined: no class appears in prediction or ground truth")
    mean_iou = float(np.nanmean(per_class))
    group_means = {}
    if partition is not None:
        for name, members in partition.groups().items():
            vals = [per_class[c] for c in members if not np.isnan(per_class[c])]
            group_means[name] = float(np.mean(vals)) if vals else float("nan")
    return IouReport(per_class=per_class, mean_iou=mean_iou, group_means=group_means)


def compute_tau(stats: ClassStats, mean_normalized: bool = False) -> float:
    """Squared worst-case concentration of a class into a single image.

    For each occurring class: the largest per-image pixel count over the
    class's summed count across the dataset. tau is the square of the
    worst ratio. With mean_normalized=True the denominator is the mean
    per-image count instead of the sum; every ratio then scales by the
    same image count, so the worst ratio is taken once and scaled. That
    variant can exceed 1 by a wide margin on skewed data.
    """
    peaks = stats.per_image_counts.max(axis=0).tolist()
    ratios = [Fraction(peak, total) for peak, total in zip(peaks, stats.count.tolist()) if total > 0]
    if not ratios:
        raise ValidationError("empty dataset: no class has pixels")
    worst = max(ratios) * (stats.num_images if mean_normalized else 1)
    return float(worst * worst)


def imbalance_ratio(stats: ClassStats, head_classes) -> float:
    """Mean pairwise pixel-count ratio between head and non-head classes.

    The sum over (head a, non-head b) pairs of n_a / n_b factors into
    (sum of n_a) * (sum of 1 / n_b), so no pair is visited.
    """
    counts = stats.count.tolist()
    head = set(require_integer(c, "head class id") for c in head_classes)
    if not head:
        raise ValidationError("head class set must be nonempty")
    for c in sorted(head):
        if not (0 <= c < stats.num_classes and counts[c] > 0):
            raise ValidationError("head class %d has no pixels" % c)
    rest = [n for c, n in enumerate(counts) if n > 0 and c not in head]
    if not rest:
        raise ValidationError("no non-head classes with pixels")
    head_total = sum(counts[c] for c in head)
    return float(head_total * sum(Fraction(1, n) for n in rest) / (len(head) * len(rest)))
