"""Reference implementations used to cross-check the library.

Everything here is written the slow, obvious way (explicit loops, exact
rational arithmetic where the quantity is rational) and stays
independent of the package internals on purpose.
"""
import math
from fractions import Fraction

import numpy as np

IGNORE = -1


def surrogate_terms(kind, d):
    """Value and both partials of the surrogate at difference d = a - b."""
    if kind == "square":
        r = 1.0 - d
        return r * r, -2.0 * r, 2.0 * r
    if kind == "exp":
        v = math.exp(-d)
        return v, -v, v
    if kind == "hinge":
        m = 1.0 - d
        if m > 0.0:
            return m, -1.0, 1.0
        return 0.0, 0.0, 0.0
    raise ValueError(kind)


def pair_loss_ref(pos, neg, kind):
    """All-pairs mean loss and gradients, one term at a time."""
    p, n = len(pos), len(neg)
    scale = 1.0 / (p * n)
    loss = 0.0
    gpos = [0.0] * p
    gneg = [0.0] * n
    for i, a in enumerate(pos):
        for j, b in enumerate(neg):
            v, da, db = surrogate_terms(kind, a - b)
            loss += v * scale
            gpos[i] += da * scale
            gneg[j] += db * scale
    return loss, gpos, gneg


def _pixels_by_class(label_arrays):
    by_class = {}
    labeled = []
    for img, lab in enumerate(label_arrays):
        lab = np.asarray(lab)
        for r in range(lab.shape[0]):
            for c in range(lab.shape[1]):
                cls = int(lab[r, c])
                if cls == IGNORE:
                    continue
                by_class.setdefault(cls, []).append((img, r, c))
                labeled.append((img, r, c, cls))
    return by_class, labeled


def _original_count(pixels, pasted):
    if pasted is None:
        return len(pixels)
    return sum(1 for (img, r, c) in pixels if not pasted[img][r, c])


def ovo_ref(score_arrays, label_arrays, kind, pasted=None, pair_norm="union"):
    """Ordered-class-pair ranking loss, every pixel pair materialized."""
    scores = [np.asarray(s, dtype=np.float64) for s in score_arrays]
    by_class, _ = _pixels_by_class(label_arrays)
    present = sorted(by_class)
    assert len(present) >= 2
    grads = [np.zeros_like(s) for s in scores]
    loss = 0.0
    for cp in present:
        for cn in present:
            if cn == cp:
                continue
            pos = by_class[cp]
            neg = by_class[cn]
            if pair_norm == "original":
                opos = _original_count(pos, pasted)
                oneg = _original_count(neg, pasted)
                if opos == 0 or oneg == 0:
                    continue
                w = 1.0 / (opos * oneg)
            else:
                w = 1.0 / (len(pos) * len(neg))
            for (ia, ra, ca) in pos:
                a = scores[ia][ra, ca, cp]
                for (ib, rb, cb) in neg:
                    b = scores[ib][rb, cb, cp]
                    v, da, db = surrogate_terms(kind, a - b)
                    loss += w * v
                    grads[ia][ra, ca, cp] += w * da
                    grads[ib][rb, cb, cp] += w * db
    return loss, grads


def ova_ref(score_arrays, label_arrays, kind, pasted=None, pair_norm="union"):
    """Each present class against every other labeled pixel."""
    scores = [np.asarray(s, dtype=np.float64) for s in score_arrays]
    by_class, labeled = _pixels_by_class(label_arrays)
    present = sorted(by_class)
    assert len(present) >= 2
    grads = [np.zeros_like(s) for s in scores]
    total_orig = _original_count([(i, r, c) for (i, r, c, _) in labeled], pasted)
    loss = 0.0
    for cp in present:
        pos = by_class[cp]
        neg = [(i, r, c) for (i, r, c, cls) in labeled if cls != cp]
        if not neg:
            continue
        if pair_norm == "original":
            opos = _original_count(pos, pasted)
            oneg = total_orig - opos
            if opos == 0 or oneg == 0:
                continue
            w = 1.0 / (opos * oneg)
        else:
            w = 1.0 / (len(pos) * len(neg))
        for (ia, ra, ca) in pos:
            a = scores[ia][ra, ca, cp]
            for (ib, rb, cb) in neg:
                b = scores[ib][rb, cb, cp]
                v, da, db = surrogate_terms(kind, a - b)
                loss += w * v
                grads[ia][ra, ca, cp] += w * da
                grads[ib][rb, cb, cp] += w * db
    return loss, grads


def ce_ref(score_arrays, label_arrays, clamp=1e-12):
    scores = [np.asarray(s, dtype=np.float64) for s in score_arrays]
    _, labeled = _pixels_by_class(label_arrays)
    n = len(labeled)
    assert n > 0
    loss = 0.0
    grads = [np.zeros_like(s) for s in scores]
    for (i, r, c, cls) in labeled:
        s = max(scores[i][r, c, cls], clamp)
        loss += -math.log(s) / n
        grads[i][r, c, cls] = -1.0 / (n * s)
    return loss, grads


def ce_into_ref(grad, pooled_s, bins, k, lam, clamp=1e-12):
    """Cross entropy over pooled (n, K) scores, bins == k ignored, adding lam
    times its gradient into grad through 2-D fancy indexing: the form the
    flat-index version must match bit for bit."""
    rows = np.flatnonzero(bins < k)
    assert rows.size > 0
    true = bins[rows]
    s_true = np.maximum(pooled_s[rows, true], clamp)
    grad[rows, true] += lam * (-1.0 / (rows.size * s_true))
    return float(-np.mean(np.log(s_true)))


def bin_sums_ref(x, bins, k):
    """Per-class column sums of an (n, m) array as a one-hot (n, K + 1)
    matrix product; row K sums the pixels in bin K (ignored)."""
    onehot = np.zeros((len(bins), k + 1))
    onehot[np.arange(len(bins)), bins] = 1.0
    return onehot.T @ x


def softmax_ref(logits):
    """Softmax over the last axis with numpy's own last-axis max and sum."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward_ref(scores, grad_scores):
    """Chain rule through softmax with numpy's own last-axis sum."""
    s = np.asarray(scores, dtype=np.float64)
    g = np.asarray(grad_scores, dtype=np.float64)
    inner = np.sum(g * s, axis=-1, keepdims=True)
    return s * (g - inner)


def auc_metric_ref(score_arrays, label_arrays):
    """Mean over realized ordered class pairs of win + half-tie rates."""
    scores = [np.asarray(s, dtype=np.float64) for s in score_arrays]
    by_class, _ = _pixels_by_class(label_arrays)
    present = sorted(by_class)
    assert len(present) >= 2
    total = 0.0
    pairs = 0
    for cp in present:
        for cn in present:
            if cn == cp:
                continue
            wins = 0.0
            for (ia, ra, ca) in by_class[cp]:
                a = scores[ia][ra, ca, cp]
                for (ib, rb, cb) in by_class[cn]:
                    b = scores[ib][rb, cb, cp]
                    if a > b:
                        wins += 1.0
                    elif a == b:
                        wins += 0.5
            total += wins / (len(by_class[cp]) * len(by_class[cn]))
            pairs += 1
    return total / pairs


def ovo_auc_metric_argsort(score_arrays, label_arrays):
    """ovo_auc_metric as one full argsort per channel, kept as its reference.

    Per channel c the pooled channel-c column is argsorted; two
    searchsorteds of every pixel into the class-c scores among them give
    the class-c pixels above and tied with it, summed per class as doubled
    integers. Takes plain arrays or grids (their .scores / .labels).
    """
    scores = [np.asarray(getattr(s, "scores", s), dtype=np.float64) for s in score_arrays]
    k = scores[0].shape[-1]
    bins = np.concatenate([np.asarray(getattr(l, "labels", l)).reshape(-1) for l in label_arrays]).astype(np.int64)
    bins[bins == IGNORE] = k
    count = np.bincount(bins, minlength=k + 1)
    present = np.flatnonzero(count[:k])
    assert present.size >= 2
    doubled = np.zeros((k, k + 1))
    for c in present:
        column = np.concatenate([s[..., c].reshape(-1) for s in scores])
        order = np.argsort(column)
        ranked = column[order]
        ranked_bins = bins[order]
        pos = ranked[ranked_bins == c]
        above = np.searchsorted(pos, ranked, side="right")
        above += np.searchsorted(pos, ranked, side="left")
        np.subtract(2 * pos.size, above, out=above)
        doubled[c] = np.bincount(ranked_bins, weights=above, minlength=k + 1)
    realized = np.zeros((k, k), dtype=bool)
    realized[np.ix_(present, present)] = True
    np.fill_diagonal(realized, False)
    pair_auc = (doubled[:, :k] / 2.0)[realized] / np.outer(count[:k], count[:k])[realized]
    total = 0.0
    for auc in pair_auc.tolist():  # (c, c') order, one rounding per pair
        total += auc
    return total / pair_auc.size


def iou_ref(pred_arrays, true_arrays, num_classes):
    """Per-class IoU from a hand-assembled confusion table; NaN if unseen."""
    conf = [[0] * num_classes for _ in range(num_classes)]
    for p, t in zip(pred_arrays, true_arrays):
        p = np.asarray(p)
        t = np.asarray(t)
        for r in range(t.shape[0]):
            for c in range(t.shape[1]):
                if t[r, c] == IGNORE:
                    continue
                conf[int(t[r, c])][int(p[r, c])] += 1
    out = []
    for k in range(num_classes):
        tp = conf[k][k]
        gt = sum(conf[k])
        pd = sum(conf[i][k] for i in range(num_classes))
        denom = gt + pd - tp
        out.append(tp / denom if denom > 0 else float("nan"))
    return out


def tau_ref(per_image_counts, mean_normalized=False):
    counts = np.asarray(per_image_counts)
    n_images, k = counts.shape
    best = Fraction(0)
    for c in range(k):
        tot = int(counts[:, c].sum())
        if tot == 0:
            continue
        top = int(counts[:, c].max())
        ratio = Fraction(top * n_images, tot) if mean_normalized else Fraction(top, tot)
        best = max(best, ratio)
    return float(best * best)


def rm_ref(counts, head):
    counts = [int(x) for x in counts]
    universe = [c for c in range(len(counts)) if counts[c] > 0]
    rest = [c for c in universe if c not in set(head)]
    acc = Fraction(0)
    for a in head:
        for b in rest:
            acc += Fraction(counts[a], counts[b])
    return float(acc / (len(head) * len(rest)))


def required_b_ref(num_classes, p_min, delta, limit=100000):
    """Linear scan for the smallest batch size meeting the union bound."""
    for b in range(1, limit + 1):
        if num_classes * (1.0 - p_min) ** b <= delta:
            return b
    raise AssertionError("no batch size under %d satisfies the bound" % limit)


def exact_coverage_failure(presence, batch_size):
    """P(some class absent), classes independent across images."""
    ok = 1.0
    for p in presence:
        ok *= 1.0 - (1.0 - p) ** batch_size
    return 1.0 - ok


def simulate_coverage_per_image(presence, batch_size, trials, seed):
    """Failures among trials that draw every image's presence of every class."""
    rng = np.random.default_rng(seed)
    covered = np.ones(trials, dtype=bool)
    for p in presence:
        covered &= (rng.random((trials, batch_size)) < p).any(axis=1)
    return int(np.count_nonzero(~covered))


def fd_gradient(fn, x, step=1e-5):
    """Central finite differences of scalar fn at flat array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(x)
        flat[i] = orig - step
        lo = fn(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * step)
    return g


# Five prediction/label fixtures with hand-worked confusion tables.
# Each entry: (pred, true, num_classes, per-class IoU, mean IoU).
IOU_FIXTURES = [
    # plain 2-class case: confusion rows (true) [[1,1],[0,2]]
    (
        [[0, 1], [1, 1]],
        [[0, 0], [1, 1]],
        2,
        [0.5, 2.0 / 3.0],
        (0.5 + 2.0 / 3.0) / 2.0,
    ),
    # IGNORE pixel dropped: 3 labeled pixels, confusion [[1,0],[1,1]]
    (
        [[0, 0], [0, 1]],
        [[0, IGNORE], [1, 1]],
        2,
        [0.5, 0.5],
        0.5,
    ),
    # class 2 absent everywhere -> NaN, excluded from the mean
    (
        [[0, 1], [1, 1]],
        [[0, 0], [1, 1]],
        3,
        [0.5, 2.0 / 3.0, float("nan")],
        (0.5 + 2.0 / 3.0) / 2.0,
    ),
    # class 2 predicted but never true -> defined IoU of 0
    (
        [[2, 2], [1, 1]],
        [[0, 0], [1, 1]],
        3,
        [0.0, 1.0, 0.0],
        1.0 / 3.0,
    ),
    # 3x3 with every class misfiring once: all IoU 1/2
    (
        [[0, 1, 1], [0, 1, 2], [2, 2, 0]],
        [[0, 0, 1], [0, 1, 1], [2, 2, 2]],
        3,
        [0.5, 0.5, 0.5],
        0.5,
    ),
]
