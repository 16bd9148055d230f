"""Tail-class memory bank: store rare-class patches, paste them back.

The bank keeps up to ``memory_size`` masked patches per tail class.
While a batch is being assembled, every occurrence of a tail class is
stored as one tight-bbox patch per (image, class). When tail classes are
missing from a batch, a sampled subset of them is pasted back in at
random positions so the ranking loss sees them anyway.

All randomness flows through one injected seeded generator, so a bank
rebuilt with the same seed and fed the same batches replays the exact
same evictions and pastes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_integer, require_integers
from .grids import Batch, ClassStats, FeatureGrid, LabelGrid, class_stats

STRATEGIES = ("random", "fifo", "lifo", "pu")


@dataclass(frozen=True)
class BankConfig:
    memory_size: int = 5
    sample_ratio: float = 0.05
    resize_ratio: float = 0.4
    strategy: str = "random"
    tail_fraction: float = 0.5

    def __post_init__(self):
        require_integers(self, "memory_size")
        if self.memory_size < 1:
            raise ValidationError("memory_size must be >= 1, got %d" % self.memory_size)
        if not (0.0 < self.sample_ratio <= 1.0):
            raise ValidationError("sample_ratio must be in (0, 1], got %r" % (self.sample_ratio,))
        if not (0.0 < self.resize_ratio <= 1.0):
            raise ValidationError("resize_ratio must be in (0, 1], got %r" % (self.resize_ratio,))
        if self.strategy not in STRATEGIES:
            raise ValidationError("strategy must be one of %r, got %r" % (STRATEGIES, self.strategy))
        if not (0.0 < self.tail_fraction < 1.0):
            raise ValidationError("tail_fraction must be in (0, 1), got %r" % (self.tail_fraction,))


@dataclass(frozen=True)
class MaskedPatch:
    """Tight crop of one class occurrence: features plus a pixel mask."""

    class_id: int
    features: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        f = np.array(self.features, dtype=np.float32)
        m = np.array(self.mask, dtype=bool)
        if f.ndim != 3 or m.shape != f.shape[:2]:
            raise ValidationError("patch features (h, w, C) and mask (h, w) must agree")
        if not m.any():
            raise ValidationError("patch mask must have at least one set pixel")
        f.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "mask", m)


@dataclass(frozen=True)
class PasteRecord:
    class_id: int
    image_index: int
    row: int
    col: int
    height: int
    width: int


@dataclass(frozen=True)
class RetrieveResult:
    """Augmented batch plus what the retrieve pass actually did.

    ``skipped`` lists classes that were drawn but pasted no pixel, because
    their store was empty or the resize left no set pixel; they consume
    sampling slots without a redraw. ``pasted_masks`` marks every
    overwritten pixel, one (H, W) bool array per image.
    """

    batch: Batch
    records: tuple
    skipped: tuple
    pasted_masks: tuple


def select_tail_classes(stats: ClassStats, tail_fraction: float):
    """Pick the floor(tail_fraction * K) classes with smallest nonzero counts.

    Ties break toward the smaller class index. Classes that never occur
    are not candidates. Returns an ascending tuple of class ids.
    """
    if not (0.0 < tail_fraction < 1.0):
        raise ValidationError("tail_fraction must be in (0, 1), got %r" % (tail_fraction,))
    k = stats.num_classes
    n_tail = int(math.floor(tail_fraction * k))
    if n_tail == 0:
        raise ValidationError("tail_fraction %r selects 0 of %d classes" % (tail_fraction, k))
    counts = stats.count
    candidates = [(int(counts[c]), c) for c in range(k) if counts[c] > 0]
    if len(candidates) < 2:
        raise ValidationError("need at least 2 classes with pixels to split off a tail")
    candidates.sort()
    chosen = [c for _, c in candidates[: min(n_tail, len(candidates))]]
    return tuple(sorted(chosen))


def missing_tail_classes(label_grids, tail_classes):
    """Tail classes with zero pixels anywhere in the batch, ascending.

    Reads the grids' class counts; a tail id outside [0, K) is an error.
    """
    count = class_stats(label_grids).count
    tail = sorted(set(require_integer(c, "tail class id") for c in tail_classes))
    if tail and (tail[0] < 0 or tail[-1] >= count.size):
        raise ValidationError("tail class ids must be in [0, %d), got %r" % (count.size, tuple(tail)))
    return tuple(c for c in tail if count[c] == 0)


def _tight_patch(feat: FeatureGrid, hit: np.ndarray, class_id: int):
    rows = np.nonzero(hit.any(axis=1))[0]
    cols = np.nonzero(hit.any(axis=0))[0]
    r0, r1 = rows[0], rows[-1] + 1
    c0, c1 = cols[0], cols[-1] + 1
    return MaskedPatch(
        class_id=class_id,
        features=feat.values[r0:r1, c0:c1],
        mask=hit[r0:r1, c0:c1],
    )


def _nearest_resize(patch: MaskedPatch, nh: int, nw: int):
    h, w = patch.mask.shape
    row_map = (np.arange(nh) * h) // nh
    col_map = (np.arange(nw) * w) // nw
    feats = patch.features[row_map][:, col_map]
    mask = patch.mask[row_map][:, col_map]
    return feats, mask


class TailMemoryBank:
    """Per-tail-class patch stores with a fixed capacity and eviction policy."""

    def __init__(self, config: BankConfig, tail_classes, seed: int = 0):
        tail = tuple(sorted(set(require_integer(c, "tail class id") for c in tail_classes)))
        if not tail:
            raise ValidationError("bank needs at least one tail class")
        if min(tail) < 0:
            raise ValidationError("tail class ids must be >= 0")
        self.config = config
        self.tail_classes = tail
        self.rng = np.random.default_rng(seed)
        self._stores = {c: [] for c in tail}
        self._used = {c: [] for c in tail}

    def store_size(self, class_id: int) -> int:
        return len(self._stores[class_id])

    def patches(self, class_id: int):
        return tuple(self._stores[class_id])

    def is_empty(self) -> bool:
        return all(len(s) == 0 for s in self._stores.values())

    def _admit(self, patch: MaskedPatch):
        store = self._stores[patch.class_id]
        used = self._used[patch.class_id]
        strat = self.config.strategy
        if strat == "fifo" and len(store) == self.config.memory_size:
            # oldest out, arrival order preserved
            del store[0]
            del used[0]
        if len(store) < self.config.memory_size:
            store.append(patch)
            used.append(False)
            return
        if strat == "lifo":
            victim = len(store) - 1
        elif strat == "pu" and any(used):
            hit = [i for i, u in enumerate(used) if u]
            victim = hit[int(self.rng.integers(len(hit)))]
        else:
            victim = int(self.rng.integers(len(store)))
        store[victim] = patch
        used[victim] = False

    def store(self, batch: Batch) -> int:
        """Store one patch per (image, tail class) occurrence; returns how many."""
        if batch.num_classes <= max(self.tail_classes):
            raise ValidationError(
                "batch with %d classes cannot contain tail class %d"
                % (batch.num_classes, max(self.tail_classes))
            )
        stored = 0
        for c in self.tail_classes:
            for feat, lab in batch:
                if lab.counts[c]:
                    self._admit(_tight_patch(feat, lab.labels == c, c))
                    stored += 1
        return stored

    def retrieve_and_paste(self, batch: Batch) -> RetrieveResult:
        """Paste samples of missing tail classes into the batch.

        Draw order per call: the set of classes (without replacement),
        then for each drawn class with a nonempty store the patch index,
        target image, and top-left position. Drawn classes with empty
        stores, and those whose resized patch keeps no set pixel, are
        skipped and not redrawn. Each patch is fit to its target image.
        Returns a new batch that shares the untouched items; only the
        images pasted into are copied.
        """
        c_miss = missing_tail_classes(batch.labels, self.tail_classes)
        masks = tuple(np.zeros((lab.height, lab.width), dtype=bool) for lab in batch.labels)
        if not c_miss or self.is_empty():
            return RetrieveResult(batch=batch, records=(), skipped=(), pasted_masks=masks)
        n_sample = min(int(math.ceil(len(c_miss) * self.config.sample_ratio)), len(c_miss))
        drawn = self.rng.choice(np.asarray(c_miss, dtype=np.int64), size=n_sample, replace=False)

        items = list(batch)
        edited = {}  # target image -> writable copies of its features and labels
        records = []
        skipped = []
        for c in (int(c) for c in drawn):
            store = self._stores[c]
            if not store:
                skipped.append(c)
                continue
            pi = int(self.rng.integers(len(store)))
            patch = store[pi]
            self._used[c][pi] = True
            t = int(self.rng.integers(len(batch)))
            height, width = batch.items[t][1].labels.shape
            ph, pw = patch.mask.shape
            nh = max(1, int(round(ph * self.config.resize_ratio)))
            nw = max(1, int(round(pw * self.config.resize_ratio)))
            if nh > height or nw > width:
                fit = min(height / nh, width / nw)
                nh = max(1, int(nh * fit))
                nw = max(1, int(nw * fit))
            pf, pm = _nearest_resize(patch, nh, nw)
            r0 = int(self.rng.integers(height - nh + 1))
            c0 = int(self.rng.integers(width - nw + 1))
            if not pm.any():
                skipped.append(c)
                continue
            if t not in edited:
                edited[t] = (items[t][0].values.copy(), items[t][1].labels.copy())
            feats, labs = edited[t]
            win = (slice(r0, r0 + nh), slice(c0, c0 + nw))
            feats[win][pm] = pf[pm]
            labs[win][pm] = c
            masks[t][win] |= pm
            records.append(PasteRecord(c, t, r0, c0, nh, nw))

        for t, (feats, labs) in edited.items():
            items[t] = (FeatureGrid(values=feats), LabelGrid(labels=labs, num_classes=batch.num_classes))
        for m in masks:
            m.setflags(write=False)
        return RetrieveResult(
            batch=Batch(items=tuple(items)),
            records=tuple(records),
            skipped=tuple(skipped),
            pasted_masks=masks,
        )
