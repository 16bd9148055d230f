"""Core value types for dense pixel labeling.

Grids are thin immutable wrappers around numpy arrays. Labels are int32
class ids in [0, K); IGNORE (-1) marks pixels excluded from every loss
and metric. Scores are dense per-pixel class probability maps, which is
fine at the class counts targeted here (K <= 64).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, require_integer

IGNORE = -1

MAX_CLASSES = 64


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FeatureGrid:
    """(H, W, C) float32 feature map."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float32)
        if v.ndim != 3 or min(v.shape) < 1:
            raise ValidationError("features must be (H, W, C) with positive dims, got %r" % (v.shape,))
        if not np.all(np.isfinite(v)):
            raise ValidationError("features must be finite")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class LabelGrid:
    """(H, W) int32 label map over K classes, IGNORE allowed.

    ``counts`` is derived once, when the grid is built: the (K,) int64
    read-only number of pixels per class, IGNORE counted nowhere.
    """

    labels: np.ndarray
    num_classes: int
    counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lab = np.asarray(self.labels)
        if lab.ndim != 2 or min(lab.shape) < 1:
            raise ValidationError("labels must be (H, W) with positive dims, got %r" % (lab.shape,))
        if not np.issubdtype(lab.dtype, np.integer):
            raise ValidationError("labels must be integers")
        k = require_integer(self.num_classes, "num_classes")
        if not (2 <= k <= MAX_CLASSES):
            raise ValidationError("num_classes must be in [2, %d], got %d" % (MAX_CLASSES, k))
        lab = lab.astype(np.int32, copy=True)
        if lab.min() < IGNORE or lab.max() >= k:
            r, c = np.argwhere((lab != IGNORE) & ((lab < 0) | (lab >= k)))[0]
            raise ValidationError(
                "label %d at (%d, %d) outside [0, %d) and not IGNORE" % (lab[r, c], r, c, k)
            )
        object.__setattr__(self, "labels", _freeze(lab))
        object.__setattr__(self, "num_classes", k)
        object.__setattr__(self, "counts", _freeze(np.bincount(lab.reshape(-1) + 1, minlength=k + 1)[1:]))

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


@dataclass(frozen=True)
class ScoreGrid:
    """(H, W, K) float64 per-class scores, one slot per class."""

    scores: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        if s.ndim != 3 or min(s.shape) < 1:
            raise ValidationError("scores must be (H, W, K) with positive dims, got %r" % (s.shape,))
        if s.shape[2] > MAX_CLASSES:
            raise ValidationError("score grid has %d class slots, max is %d" % (s.shape[2], MAX_CLASSES))
        if not np.all(np.isfinite(s)):
            raise ValidationError("scores must be finite")
        object.__setattr__(self, "scores", _freeze(s))

    @property
    def height(self) -> int:
        return self.scores.shape[0]

    @property
    def width(self) -> int:
        return self.scores.shape[1]

    @property
    def num_classes(self) -> int:
        return self.scores.shape[2]


@dataclass(frozen=True)
class Batch:
    """An ordered list of (FeatureGrid, LabelGrid) training items."""

    items: tuple

    def __post_init__(self):
        items = tuple(self.items)
        if not items:
            raise ValidationError("empty batch")
        k = None
        for i, (feat, lab) in enumerate(items):
            if not isinstance(feat, FeatureGrid) or not isinstance(lab, LabelGrid):
                raise ValidationError("batch item %d is not (FeatureGrid, LabelGrid)" % i)
            if (feat.height, feat.width) != (lab.height, lab.width):
                raise ValidationError(
                    "batch item %d: feature dims %r != label dims %r"
                    % (i, (feat.height, feat.width), (lab.height, lab.width))
                )
            if k is None:
                k = lab.num_classes
            elif lab.num_classes != k:
                raise ValidationError("batch item %d: num_classes %d != %d" % (i, lab.num_classes, k))
        object.__setattr__(self, "items", items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    @property
    def num_classes(self) -> int:
        return self.items[0][1].num_classes

    @property
    def features(self):
        return [feat for feat, _ in self.items]

    @property
    def labels(self):
        return [lab for _, lab in self.items]


@dataclass(frozen=True)
class ClassStats:
    """Exact pixel bookkeeping for a list of label grids.

    per_image_counts[i, c] is the number of class-c pixels in image i.
    IGNORE pixels count toward nothing.
    """

    per_image_counts: np.ndarray
    num_classes: int

    def __post_init__(self):
        m = np.asarray(self.per_image_counts, dtype=np.int64)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] != self.num_classes:
            raise ValidationError("per_image_counts must be (N, K), got %r" % (m.shape,))
        if (m < 0).any():
            raise ValidationError("pixel counts must be nonnegative")
        object.__setattr__(self, "per_image_counts", _freeze(m.copy()))

    @property
    def count(self) -> np.ndarray:
        """Total pixels per class across the dataset, (K,) int64."""
        return self.per_image_counts.sum(axis=0)

    @property
    def present(self) -> np.ndarray:
        """(N, K) bool, True where image i contains class c."""
        return self.per_image_counts > 0

    @property
    def num_images(self) -> int:
        return self.per_image_counts.shape[0]


@dataclass(frozen=True)
class LossReport:
    """A scalar loss plus its gradient w.r.t. every score entry.

    ``gradients`` has one (H, W, K) float64 array per batch item. The
    ``parts`` dict carries named sub-losses (e.g. auc/ce) when the loss
    is a composite; leaf losses leave it empty.
    """

    loss: float
    gradients: tuple
    parts: dict = field(default_factory=dict)


def pool_batch(scores, labels):
    """Check a batch once and count its classes once: the one gate into
    the loss and metric layer.

    Scores and labels may be grids or plain arrays. A grid was checked
    when it was built, so only its shape and class count are compared
    here; a plain score array must be finite, and a plain label array
    becomes a LabelGrid over the score slots, so it meets the grid's
    contract. Returns the per-image score arrays uncopied (the caller's:
    never write into them), int64 bins in [0, K] with IGNORE in the extra
    bin K, K, the (K + 1,) count of each bin, summed from the grids'
    counts, and per-image (shape, slice) spans into the pooled pixel order.
    """
    score_arrays = [s.scores if isinstance(s, ScoreGrid) else np.asarray(s, dtype=np.float64) for s in scores]
    if len(score_arrays) != len(labels) or not score_arrays:
        raise ValidationError("need equal, nonzero numbers of score and label grids")
    k = score_arrays[0].shape[-1]
    grids, spans = [], []
    offset = 0
    for i, (s, l) in enumerate(zip(score_arrays, labels)):
        if s.ndim != 3 or s.shape[-1] != k:
            raise ValidationError("score grid %d has shape %r, expected (H, W, %d)" % (i, s.shape, k))
        if not isinstance(scores[i], ScoreGrid) and not np.all(np.isfinite(s)):
            raise ValidationError("score grid %d: scores must be finite" % i)
        if not isinstance(l, LabelGrid):
            l = LabelGrid(labels=l, num_classes=k)
        elif l.num_classes != k:
            raise ValidationError("label grid %d has %d classes, scores have %d slots" % (i, l.num_classes, k))
        if l.labels.shape != s.shape[:2]:
            raise ValidationError(
                "label grid %d shape %r does not match scores %r" % (i, l.labels.shape, s.shape[:2]))
        grids.append(l)
        spans.append((s.shape, slice(offset, offset + l.labels.size)))
        offset += l.labels.size
    bins = np.concatenate([g.labels.reshape(-1) for g in grids]).astype(np.int64)
    ignored = bins == IGNORE
    bins[ignored] = k
    return score_arrays, bins, k, np.append(sum(g.counts for g in grids), np.count_nonzero(ignored)), spans


def class_stats(label_grids) -> ClassStats:
    """Stack the per-class pixel counts of a dataset of LabelGrids."""
    grids = list(label_grids)
    if not grids:
        raise ValidationError("empty dataset")
    for i, g in enumerate(grids):
        if not isinstance(g, LabelGrid):
            raise ValidationError("item %d is not a LabelGrid" % i)
        if g.num_classes != grids[0].num_classes:
            raise ValidationError("item %d: num_classes %d != %d" % (i, g.num_classes, grids[0].num_classes))
    return ClassStats(per_image_counts=np.stack([g.counts for g in grids]), num_classes=grids[0].num_classes)
