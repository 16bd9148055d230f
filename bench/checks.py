"""Output checks computed apart from the program.

Every function here recomputes a result from the program's inputs with
the benchmark's own code and raises CheckError when the program's value
disagrees. Nothing is imported from ``aucseg``: the checks read plain
numpy arrays, so a fault in a shared helper of the program cannot hide
itself by also producing the reference.
"""
from __future__ import annotations

import math
import struct
from fractions import Fraction

import numpy as np

IGNORE = -1

# pair differences per chunk: 2 MiB of doubles, so the check adds little to
# the peak memory of the run it checks
_PAIR_CHUNK = 1 << 18


class CheckError(AssertionError):
    """A program output disagrees with its independent recomputation."""


def _close(name, got, want, tol):
    if not (abs(float(got) - float(want)) <= tol):
        raise CheckError("%s: program gives %.17g, recomputed %.17g" % (name, got, want))


def _close_rel(name, got, want, rel):
    _close(name, got, want, rel * max(1.0, abs(float(want))))


# -- file formats --------------------------------------------------------------

def read_segd_arrays(path):
    """SEGD file -> [(float32 (H, W, C) features, int32 (H, W) labels)]."""
    with open(path, "rb") as f:
        blob = f.read()
    magic, version, n, k, h, w, ch = struct.unpack_from("<4sIIIIII", blob, 0)
    if magic != b"SEGD" or version != 1:
        raise CheckError("%s is not a version-1 SEGD file" % path)
    off = 28
    items = []
    for _ in range(n):
        feats = np.frombuffer(blob, "<f4", h * w * ch, off).reshape(h, w, ch)
        off += feats.nbytes
        raw = np.frombuffer(blob, "<u2", h * w, off).reshape(h, w)
        off += raw.nbytes
        labels = np.where(raw == 0xFFFF, IGNORE, raw).astype(np.int32)
        items.append((feats, labels))
    if off != len(blob):
        raise CheckError("%s: %d bytes after the last image" % (path, len(blob) - off))
    return items, k


def read_segm_arrays(path):
    """SEGM file -> (float64 (C, K) weights, float64 (K,) bias)."""
    with open(path, "rb") as f:
        blob = f.read()
    magic, version, ch, k = struct.unpack_from("<4sIII", blob, 0)
    if magic != b"SEGM" or version != 1:
        raise CheckError("%s is not a version-1 SEGM file" % path)
    w = np.frombuffer(blob, "<f4", ch * k, 16).reshape(ch, k).astype(np.float64)
    b = np.frombuffer(blob, "<f4", k, 16 + 4 * ch * k).astype(np.float64)
    return w, b


# -- evaluation row ---------------------------------------------------------

def softmax_scores(features, weights, bias):
    """Per-image (H, W, K) class probabilities of the affine-softmax model."""
    out = []
    for x in features:
        z = x.astype(np.float64) @ weights + bias
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        out.append(e / e.sum(axis=-1, keepdims=True))
    return out


def partition_from_counts(counts, head_count, middle_count):
    """Head/middle/tail class tuples from (K,) pixel counts.

    Occurring classes ranked by descending count, ties to the smaller id;
    a zero count selects one third of the occurring classes.
    """
    occurring = [c for c in range(len(counts)) if counts[c] > 0]
    ranked = sorted(occurring, key=lambda c: (-int(counts[c]), c))
    head_n = head_count or max(1, len(ranked) // 3)
    middle_n = middle_count or max(1, len(ranked) // 3)
    head = tuple(sorted(ranked[:head_n]))
    middle = tuple(sorted(ranked[head_n:head_n + middle_n]))
    tail = tuple(sorted(ranked[head_n + middle_n:]))
    return head, middle, tail


def class_counts(label_arrays, k):
    total = np.zeros(k, dtype=np.int64)
    for lab in label_arrays:
        lab = lab[lab != IGNORE]
        total += np.bincount(lab.ravel(), minlength=k)
    return total


def iou_groups(preds, labels, k, groups):
    """mIoU over classes seen in prediction or truth, and per-group means."""
    confusion = np.zeros((k, k), dtype=np.int64)
    for p, t in zip(preds, labels):
        valid = t != IGNORE
        confusion += np.bincount(t[valid].astype(np.int64) * k + p[valid],
                                 minlength=k * k).reshape(k, k)
    tp = np.diag(confusion)
    union = confusion.sum(axis=0) + confusion.sum(axis=1) - tp
    per_class = {c: tp[c] / union[c] for c in range(k) if union[c] > 0}
    miou = sum(per_class.values()) / len(per_class)
    means = []
    for members in groups:
        vals = [per_class[c] for c in members if c in per_class]
        means.append(sum(vals) / len(vals) if vals else float("nan"))
    return miou, means


def ovo_auc_by_counting(scores, labels, k):
    """Mean over ordered present class pairs (c, c') of P(s_c(pos) > s_c(neg)).

    Counted by binary search in the sorted negative scores; a tie counts
    half. The doubled count is summed in integers, so it is exact.
    """
    flat_s = np.concatenate([s.reshape(-1, k) for s in scores])
    flat_l = np.concatenate([l.reshape(-1) for l in labels])
    rows = {c: np.flatnonzero(flat_l == c) for c in range(k)}
    present = [c for c in range(k) if rows[c].size]
    total = 0.0
    pairs = 0
    for c in present:
        pos = flat_s[rows[c], c]
        for cn in present:
            if cn == c:
                continue
            neg = np.sort(flat_s[rows[cn], c])
            below = np.searchsorted(neg, pos, side="left")
            not_above = np.searchsorted(neg, pos, side="right")
            twice_u = int(below.sum()) + int(not_above.sum())
            total += twice_u / (2.0 * pos.size * neg.size)
            pairs += 1
    return total / pairs


def _check_quality(row, weights, bias, feats, labels, groups, k, rel):
    scores = softmax_scores(feats, weights, bias)
    preds = [s.argmax(axis=-1) for s in scores]
    miou, (head, middle, tail) = iou_groups(preds, labels, k, groups)
    for name, want in (("miou", miou), ("head_miou", head), ("middle_miou", middle),
                       ("tail_miou", tail)):
        got = float(row[name])
        if not (math.isnan(want) and math.isnan(got)):
            _close_rel(name, got, want, rel)
    _close_rel("ovo_auc", float(row["ovo_auc"]), ovo_auc_by_counting(scores, labels, k), rel)


def check_eval_row(row, weights, bias, items, train_idx, eval_idx, k,
                   head_count=0, middle_count=0, rel=1e-9):
    """Recompute a training's held-out eval row from its model and split.

    ``row`` maps miou, head_miou, middle_miou, tail_miou and ovo_auc to
    the program's values; ``items`` is a list of (features, labels) numpy
    pairs for the whole dataset. Groups come from train-split counts.
    """
    counts = class_counts([items[i][1] for i in train_idx], k)
    groups = partition_from_counts(counts, head_count, middle_count)
    _check_quality(row, weights, bias, [items[i][0] for i in eval_idx],
                   [items[i][1] for i in eval_idx], groups, k, rel)


def check_eval_csv(row, weights, bias, items, k, rel=1e-9):
    """Recompute an ``aucseg eval`` row; groups come from the file's own counts."""
    labels = [lab for _, lab in items]
    per_image = np.stack([np.bincount(lab[lab != IGNORE].ravel(), minlength=k) for lab in labels])
    groups = partition_from_counts(per_image.sum(axis=0), 0, 0)
    _check_quality(row, weights, bias, [f for f, _ in items], labels, groups, k, rel)
    check_diagnostics(row, per_image, groups[0], rel)


# -- AUC loss -----------------------------------------------------------------

def _surrogate_sum(a, b, kind):
    """Sum of ell(a_i - b_j) over every pair, chunked over a."""
    total = 0.0
    rows = max(1, _PAIR_CHUNK // max(1, b.size))
    for lo in range(0, a.size, rows):
        d = a[lo:lo + rows, None] - b[None, :]
        if kind == "square":
            total += float(np.sum((1.0 - d) ** 2))
        elif kind == "hinge":
            total += float(np.sum(np.maximum(0.0, 1.0 - d)))
        elif kind == "exp":
            total += float(np.sum(np.exp(-d)))
        else:
            raise ValueError("unknown surrogate %r" % (kind,))
    return total


def auc_loss_all_pairs(scores, labels, kind, mode):
    """The batch's pairwise AUC loss as a literal all-pairs mean per class pair.

    OvO sums over ordered pairs of present classes (c, c'), reading
    channel c; OvA pairs each present class with every other labeled
    pixel. Each term is the mean over its pixel pairs (union
    normalization, pasted pixels counted as members).
    """
    k = scores[0].shape[-1]
    flat_s = np.concatenate([np.asarray(s, dtype=np.float64).reshape(-1, k) for s in scores])
    flat_l = np.concatenate([np.asarray(l).reshape(-1) for l in labels])
    valid = flat_l != IGNORE
    present = [c for c in range(k) if np.any(flat_l == c)]
    loss = 0.0
    for c in present:
        a = flat_s[flat_l == c, c]
        if mode == "ovo":
            negs = [flat_s[flat_l == cn, c] for cn in present if cn != c]
        else:
            negs = [flat_s[valid & (flat_l != c), c]]
        for b in negs:
            if b.size:
                loss += _surrogate_sum(a, b, kind) / (a.size * b.size)
    return loss


def check_auc_loss(reported, scores, labels, kind, mode, rel=1e-9):
    _close_rel("AUC loss", reported, auc_loss_all_pairs(scores, labels, kind, mode), rel)


# -- memory bank --------------------------------------------------------------

def check_pastes(records, labels_before, labels_after, pasted_masks):
    """Every pasted pixel carries the class of a paste record that covers it.

    ``records`` are (class_id, image, row, col, height, width) windows.
    Pastes may overlap, and a record's mask need not fill its window, so
    a pasted pixel must carry the class of one of the records of its
    image whose window holds it. Pixels outside the pasted masks keep
    their label. A record may paste no pixel at all: the bank's
    nearest-neighbour resize can sample every set pixel of a sparse
    patch away, and the paste is still recorded.
    """
    for img, (before, after, pasted) in enumerate(zip(labels_before, labels_after, pasted_masks)):
        changed = (after != before) & ~pasted
        if changed.any():
            raise CheckError("image %d: %d pixels changed label outside the pasted mask"
                             % (img, int(changed.sum())))
        carried = np.zeros(after.shape, dtype=bool)
        for cls, rec_img, r0, c0, h, w in records:
            if rec_img == img:
                win = (slice(r0, r0 + h), slice(c0, c0 + w))
                carried[win] |= after[win] == cls
        stray = pasted & ~carried
        if stray.any():
            r, c = np.argwhere(stray)[0]
            raise CheckError("image %d: pasted pixel (%d, %d) holds class %d, which no "
                             "paste covering it carries" % (img, r, c, after[r, c]))


def check_store_sizes(sizes, memory_size):
    """``sizes`` maps tail class to patches held after a store call."""
    over = {c: n for c, n in sizes.items() if n > memory_size}
    if over:
        raise CheckError("stores over memory_size %d: %r" % (memory_size, over))


def check_pastes_happened(total_pastes):
    if total_pastes <= 0:
        raise CheckError("the memory bank pasted nothing in a training run")


def check_image_count(counted, steps, batch_size):
    if counted != steps * batch_size:
        raise CheckError("counted %d images, expected %d steps x %d"
                         % (counted, steps, batch_size))


# -- data generation and the container ------------------------------------------

def check_truth_counts(painted_counts, label_arrays, k):
    for i, lab in enumerate(label_arrays):
        want = np.bincount(lab[lab != IGNORE].ravel(), minlength=k)
        if not np.array_equal(np.asarray(painted_counts[i]), want):
            raise CheckError("image %d: generator counts %r, labels hold %r"
                             % (i, list(painted_counts[i]), list(want)))


def check_bit_exact(name, got_items, want_items):
    """Pairs of (features, labels) arrays must match bit for bit."""
    if len(got_items) != len(want_items):
        raise CheckError("%s: %d images, expected %d" % (name, len(got_items), len(want_items)))
    for i, ((gf, gl), (wf, wl)) in enumerate(zip(got_items, want_items)):
        if gf.shape != wf.shape or gf.tobytes() != np.ascontiguousarray(wf, dtype=gf.dtype).tobytes():
            raise CheckError("%s: image %d features differ" % (name, i))
        if not np.array_equal(gl, wl):
            raise CheckError("%s: image %d labels differ" % (name, i))


# -- imbalance diagnostics --------------------------------------------------------

def tau_exact(per_image_counts, mean_normalized=False):
    counts = np.asarray(per_image_counts, dtype=np.int64)
    n_images = counts.shape[0]
    best = Fraction(0)
    for c in range(counts.shape[1]):
        total = int(counts[:, c].sum())
        if total:
            ratio = Fraction(int(counts[:, c].max()) * (n_images if mean_normalized else 1), total)
            best = max(best, ratio)
    return best * best


def imbalance_ratio_exact(per_image_counts, head):
    totals = [int(x) for x in np.asarray(per_image_counts, dtype=np.int64).sum(axis=0)]
    rest = [c for c, n in enumerate(totals) if n and c not in head]
    acc = sum(Fraction(totals[a], totals[b]) for a in head for b in rest)
    return acc / (len(head) * len(rest))


def check_diagnostics(row, per_image_counts, head, rel=1e-9):
    """tau, tau_mean_normalized and imbalance_ratio against exact rationals."""
    _close_rel("tau", float(row["tau"]), float(tau_exact(per_image_counts)), rel)
    _close_rel("tau_mean_normalized", float(row["tau_mean_normalized"]),
               float(tau_exact(per_image_counts, mean_normalized=True)), rel)
    _close_rel("imbalance_ratio", float(row["imbalance_ratio"]),
               float(imbalance_ratio_exact(per_image_counts, head)), rel)


# -- coverage ---------------------------------------------------------------------

def check_required_batch(k, p_min, delta, batch):
    """K(1-p)^B <= delta < K(1-p)^(B-1), in exact rationals."""
    p = Fraction(str(p_min))
    d = Fraction(str(delta))
    if not (k * (1 - p) ** batch <= d < k * (1 - p) ** (batch - 1)):
        raise CheckError("B=%d is not the smallest batch with K(1-p)^B <= delta "
                         "(K=%d, p=%s, delta=%s)" % (batch, k, p_min, delta))


def exact_failure_rate(k, p_min, batch):
    """P(some of K classes, each present w.p. p per image, misses B images)."""
    return 1.0 - (1.0 - (1.0 - p_min) ** batch) ** k


def check_failure_rate(k, p_min, batch, failures, trials, sigmas=5.0):
    """Simulated failures within ``sigmas`` standard errors of the exact rate.

    Two extra failures of slack keep the test meaningful at rates so
    small that the expected count is below one.
    """
    q = exact_failure_rate(k, p_min, batch)
    mean = trials * q
    sd = math.sqrt(trials * q * (1.0 - q))
    if abs(failures - mean) > sigmas * sd + 2.0:
        raise CheckError("B=%d: %d failures in %d trials, exact rate %.6g expects %.1f +- %.1f"
                         % (batch, failures, trials, q, mean, sd))
