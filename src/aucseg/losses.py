"""Pairwise ranking surrogate losses with analytic gradients.

The empirical pairwise risk for one (positive class, negative class) pair
is the mean of ell(a_m - b_n) over every positive score a_m and negative
score b_n. Computing that literally costs O(P*N) per pair. One engine,
``class_pair_loss``, computes the weighted sum of these risks over every
class pair of a pooled batch at once, given a (K, K) pair-weight matrix
w; one-vs-one, one-vs-all, the pasted-pixel normalizations and skipped
pairs differ only in how w is filled, and ``pair_loss`` is its
two-class case. Each surrogate has one exact decomposition:

  square  ell(x) = (1 - x)^2
      a class-j pixel's gradient on channel c is offset[j, c] +
      slope[j, c] * s, closing over per-class first moments of every
      score channel (bincounts). The loss is quadratic in S, so
      it is f(0) + (<grad f(0), S> + <grad f(S), S>) / 2, where
      grad f(0) is twice the linear surrogate's per-class table.
  hinge   ell(x) = max(0, 1 - x)
      a pair is active iff a < b + 1. When every channel's scores span
      less than 1, as softmax outputs in [0, 1] do short of saturating
      to exactly 1.0, every pair is active and the hinge is the linear
      surrogate 1 - a + b, affine in the scores: a per-class table is
      its gradient, and the table's constant plus <gradient, scores>
      its loss. Otherwise, per channel c, sort the class-c scores once;
      one searchsorted gives each pixel its count of active positives,
      prefix sums their score sum, and a weighted bincount of the
      counts the positives' gradients. At the kink the subgradient 0 is
      chosen.
  exp     ell(x) = exp(-x)
      factorizes into per-class sums of exp(-a) and exp(b), each shifted
      by its channel's extreme score, so it overflows only when the
      loss itself does (then NumericalError).

``pair_loss_naive`` materializes all pairs and is kept deliberately
independent of the engine; it is the reference the engine is validated
against.

Gradients are reported with respect to the score entries; callers chain
them through ``softmax_backward`` when scores come from a softmax head.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .grids import LossReport, pool_batch

SURROGATES = ("square", "hinge", "exp")

CE_CLAMP = 1e-12

_NAIVE_CHUNK = 2048


@dataclass(frozen=True)
class PairLossResult:
    """Mean pairwise loss for one positive/negative split plus gradients."""

    loss: float
    grad_pos: np.ndarray
    grad_neg: np.ndarray


def _check_pair_inputs(pos, neg, kind):
    if kind not in SURROGATES:
        raise ValidationError("unknown surrogate %r, expected one of %r" % (kind, SURROGATES))
    a = np.asarray(pos, dtype=np.float64).ravel()
    b = np.asarray(neg, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise ValidationError("empty class: pairwise loss needs at least one score on each side")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValidationError("scores must be finite")
    return a, b


def pair_loss(pos, neg, kind="square") -> PairLossResult:
    """Mean surrogate loss over all (pos, neg) pairs: a two-class engine call."""
    a, b = _check_pair_inputs(pos, neg, kind)
    p, n = a.size, b.size
    scores = np.zeros((p + n, 2))
    scores[:, 0] = np.concatenate((a, b))
    bins = np.repeat(np.arange(2), (p, n))
    w = np.array([[0.0, 1.0 / (p * n)], [0.0, 0.0]])
    loss, grad = class_pair_loss(scores, bins, np.array([p, n, 0]), w, kind)
    return PairLossResult(loss, grad[:p, 0].copy(), grad[p:, 0].copy())


def pair_loss_naive(pos, neg, kind="square") -> PairLossResult:
    """Reference implementation over explicitly materialized pairs.

    Chunked over positives so large instances stay within memory; the
    arithmetic is the plain all-pairs sum either way.
    """
    a, b = _check_pair_inputs(pos, neg, kind)
    p, n = a.size, b.size
    scale = 1.0 / (p * n)
    total = 0.0
    grad_pos = np.zeros(p)
    grad_neg = np.zeros(n)
    for lo in range(0, p, _NAIVE_CHUNK):
        ac = a[lo : lo + _NAIVE_CHUNK]
        diff = ac[:, None] - b[None, :]
        if kind == "square":
            resid = 1.0 - diff
            total += np.sum(resid * resid)
            grad_pos[lo : lo + _NAIVE_CHUNK] = -2.0 * scale * resid.sum(axis=1)
            grad_neg += 2.0 * scale * resid.sum(axis=0)
        elif kind == "exp":
            e = np.exp(-diff)
            total += e.sum()
            grad_pos[lo : lo + _NAIVE_CHUNK] = -scale * e.sum(axis=1)
            grad_neg += scale * e.sum(axis=0)
        else:
            margin = 1.0 - diff
            active = margin > 0.0
            total += np.sum(margin[active])
            grad_pos[lo : lo + _NAIVE_CHUNK] = -scale * active.sum(axis=1)
            grad_neg += scale * active.sum(axis=0)
    return PairLossResult(float(total * scale), grad_pos, grad_neg)


# Up to this many classes, K passes over the columns of an (n, K) array
# beat numpy's one-row-at-a-time last-axis sum; from about 28 on they lose
# (timings in CHANGES.md).
_COLUMN_SUM_MAX_K = 24


def _class_sum(x):
    """x.sum(axis=-1) of an (n, K) array, bit for bit.

    numpy adds a last axis of at most 128 entries to an initial 0.0
    pairwise: eight running sums over columns j, j + 8, j + 16, ..., the
    tree ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the last
    K % 8 columns in turn. Up to _COLUMN_SUM_MAX_K classes the same order
    runs over whole columns.
    """
    k = x.shape[1]
    if k > _COLUMN_SUM_MAX_K:
        return x.sum(axis=-1)
    cols = x.T
    stop = k - k % 8
    total = np.zeros(len(x))
    if stop:
        r = cols[:8]
        for i in range(8, stop, 8):
            r = [a + b for a, b in zip(r, cols[i : i + 8])]
        total += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for c in cols[stop:]:
        total += c
    return total


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, stabilized by max subtraction.

    The max is a running maximum over the class columns and the sum is
    ``_class_sum``, so every bit equals the last-axis reductions' of a
    C-contiguous array, whatever the input's layout.
    """
    z = np.asarray(logits, dtype=np.float64, order="C")
    flat = z.reshape(-1, z.shape[-1])
    top = flat[:, 0].copy()
    for c in flat.T[1:]:
        np.maximum(top, c, out=top)
    e = flat - top[:, None]
    np.exp(e, out=e)
    e /= _class_sum(e)[:, None]
    return e.reshape(z.shape)


def softmax_backward(scores: np.ndarray, grad_scores: np.ndarray) -> np.ndarray:
    """Exact chain rule through softmax: grad wrt logits from grad wrt scores."""
    s = np.asarray(scores, dtype=np.float64, order="C")
    g = np.asarray(grad_scores, dtype=np.float64, order="C")
    out = g * s
    inner = _class_sum(out.reshape(-1, out.shape[-1]))
    np.subtract(g, inner.reshape(out.shape[:-1] + (1,)), out=out)
    out *= s
    return out


def _bin_sums(x, bins, k):
    """(K + 1, K) per-class sums of each column of an (n, K) array; row K sums the ignored pixels."""
    cells = (bins[:, None] * k + np.arange(k)).ravel()  # (class, channel) cells, no strided column reads
    return np.bincount(cells, weights=x.ravel(), minlength=(k + 1) * k).reshape(k + 1, k)


def class_pair_loss(scores, bins, count, w, kind):
    """Weighted surrogate sum over every class pair of pooled pixels.

    scores is (n, K), bins (n,) class ids in [0, K] with K for ignored
    pixels, count the (K + 1,) bincount of bins, and w[c, j] the weight
    of one (class-c pixel, class-j pixel) pair scored on channel c:

        loss = sum_c sum_j w[c, j] sum_{m in c, t in j} ell(s[m, c] - s[t, c])

    w must be zero on the diagonal and wherever class c or j is empty.
    Returns the loss and its (n, K) gradient.
    """
    if kind not in SURROGATES:
        raise ValidationError("unknown surrogate %r, expected one of %r" % (kind, SURROGATES))
    n, k = scores.shape
    wt = np.zeros((k + 1, k))  # wt[j, c]: weight of a class-j pixel as a negative on channel c
    wt[:k] = w.T
    nk, alpha = count[:k], (wt * count[:, None]).sum(axis=0)
    # gradient of the linear surrogate 1 - a + b at a class-j pixel on channel c
    table = wt * nk
    table[:k][np.diag_indices(k)] = -alpha
    if kind == "hinge":
        # fl(x + 1) is monotone: a channel of range under 1 has a < fl(b + 1) for every pair,
        # the sort path's active set. The array's range bounds all channels' at a tenth of the cost.
        if not (scores.max() < scores.min() + 1.0
                or np.all(scores.max(axis=0) < scores.min(axis=0) + 1.0)):
            return _hinge_pairs(scores, bins, wt, count)
        # every pair active: ell = 1 - a + b is affine, its gradient the table
        grad = table[bins]
        return float(np.sum(alpha * nk) + np.vdot(grad, scores)), grad
    if kind == "square":
        m1 = _bin_sums(scores, bins, k)
        # gradient of a class-j pixel on channel c is offset[j, c] + slope[j, c] * s
        offset = 2.0 * wt * (nk - np.diag(m1))
        slope = 2.0 * wt * nk
        offset[:k][np.diag_indices(k)] = -2.0 * (alpha + (wt * m1).sum(axis=0))
        slope[:k][np.diag_indices(k)] = 2.0 * alpha
        grad = offset[bins] + slope[bins] * scores
        # f quadratic: f(S) = f(0) + (<grad f(0), S> + <grad f(S), S>) / 2, grad f(0) = 2 table[bins]
        return float(np.sum(alpha * nk) + np.sum(table * m1) + 0.5 * np.einsum("ij,ij->", grad, scores)), grad
    # exp: ell = exp(-a) * exp(b), each factor shifted by its channel's
    # extreme score so that no exponential overflows unless the loss does
    live = (wt > 0).any(axis=0)
    own = np.minimum(bins, k - 1)  # each pixel's own channel; ignored pixels carry no weight
    pos = np.take_along_axis(scores, own[:, None], axis=1)[:, 0]
    hi = np.where(live, np.where((wt > 0)[bins], scores, -np.inf).max(axis=0), 0.0)
    lo = np.full(k + 1, np.inf)
    np.minimum.at(lo, bins, pos)  # per-class minimum of the own-channel score
    lo = np.where(count > 0, lo, 0.0)[:k]
    e_neg = np.exp(np.minimum(scores - hi, 0.0))
    e_pos = np.where(bins < k, np.exp(np.minimum(lo[own] - pos, 0.0)), 0.0)
    sum_pos = np.bincount(bins, weights=e_pos, minlength=k + 1)[:k]
    sum_neg = (wt * _bin_sums(e_neg, bins, k)).sum(axis=0)
    with np.errstate(over="ignore", divide="ignore"):
        loss = np.sum(np.exp(hi[live] - lo[live] + np.log(sum_pos[live] * sum_neg[live])))
        scale = np.where(live, np.exp(hi - lo), 0.0)
    if not np.isfinite(loss):
        raise NumericalError("exp surrogate loss overflows float64")
    grad = e_neg * (wt * (sum_pos * scale))[bins]
    grad[np.arange(n), own] -= e_pos * (scale * sum_neg)[own]
    return float(loss), grad


def _hinge_pairs(scores, bins, wt, count):
    """Hinge terms, one sort of the class-c scores per channel.

    A (positive a, negative b) pair is active iff a < b + 1. One
    searchsorted gives every pixel its count of active positives, and a
    weighted bincount of those counts the positives' suffix sums.
    """
    n, k = scores.shape
    order = np.argsort(bins, kind="stable")
    starts = np.concatenate(([0], np.cumsum(count)))
    channels = np.ascontiguousarray(scores.T)
    loss = 0.0
    grad = np.zeros((k, n))
    for c in np.flatnonzero((wt > 0).any(axis=0)):
        b = channels[c]
        rows = order[starts[c] : starts[c + 1]]
        a = b[rows]
        rank = np.argsort(a)
        a_sorted = a[rank]
        prefix = np.concatenate(([0.0], np.cumsum(a_sorted)))
        active = np.searchsorted(a_sorted, b + 1.0, side="left")
        weight = wt[:, c].take(bins)
        grad[c] = weight * active
        # negative weight per active count; sorted positive i pairs with every count > i
        by_count = np.bincount(active, weights=weight, minlength=a.size + 1)
        loss += grad[c].sum() + grad[c] @ b - by_count @ prefix
        grad[c, rows[rank]] = -np.cumsum(by_count[::-1])[-2::-1]
    return float(loss), np.ascontiguousarray(grad.T)


def _pool(scores, labels):
    score_arrays, bins, k, count, spans = pool_batch(scores, labels)
    return np.concatenate([s.reshape(-1, k) for s in score_arrays]), bins, k, count, spans


def _scatter(grad_flat, spans):
    grad_flat.setflags(write=False)  # before slicing, so every per-image view is read-only
    return tuple(grad_flat[span].reshape(shape) for shape, span in spans)


def _ce_into(grad, pooled_s, bins, count, lam):
    """Mean cross entropy over the labeled pooled pixels; adds lam times its gradient into grad."""
    k = len(count) - 1
    true = np.arange(0, bins.size * k, k) + bins  # flat indices of the true-class entries
    true = true[bins < k] if count[k] else true
    if true.size == 0:
        raise ValidationError("no labeled pixels: cross entropy undefined")
    s_true = np.maximum(pooled_s.take(true), CE_CLAMP)
    grad.put(true, grad.take(true) + lam * (-1.0 / (true.size * s_true)))
    return float(-np.mean(np.log(s_true)))


def _auc_loss(mode, scores, labels, kind, pasted, pair_norm, lam=None):
    """The pooled ranking loss; given lam, plus lam times cross entropy in the same gradient buffer."""
    if pair_norm not in ("union", "original"):
        raise ValidationError("pair_norm must be 'union' or 'original', got %r" % (pair_norm,))
    pooled_s, bins, k, count, spans = _pool(scores, labels)
    if np.count_nonzero(count[:k]) < 2:
        raise ValidationError("degenerate batch: AUC undefined with fewer than 2 classes present")
    # each pair term is a sum over all pixels divided by the product of the
    # class sizes: the sizes summed over ("union") or the pre-paste ones
    size = count[:k]
    if pasted is not None:
        if len(pasted) != len(spans):
            raise ValidationError("%d pasted masks for %d images" % (len(pasted), len(spans)))
        for i, (m, (shape, _)) in enumerate(zip(pasted, spans)):
            if np.shape(m) != shape[:2]:
                raise ValidationError("pasted mask %d has shape %r, its image %r" % (i, np.shape(m), shape[:2]))
        if pair_norm == "original":
            flat = np.concatenate([np.asarray(m, dtype=bool).reshape(-1) for m in pasted])
            size = np.bincount(bins[~flat], minlength=k + 1)[:k]
    size = size.astype(np.float64)
    denom = np.outer(size, size) if mode == "ovo" else (size * (size.sum() - size))[:, None]
    w = np.divide(1.0, denom, out=np.zeros((k, k)), where=denom > 0)
    np.fill_diagonal(w, 0.0)
    loss, grad = class_pair_loss(pooled_s, bins, count, w, kind)
    if lam is None:
        return LossReport(loss=loss, gradients=_scatter(grad, spans))
    ce = _ce_into(grad, pooled_s, bins, count, lam)
    return LossReport(loss=loss + lam * ce, gradients=_scatter(grad, spans), parts={"auc": loss, "ce": ce})


def ovo_auc_loss(scores, labels, kind="square", pasted=None, pair_norm="union") -> LossReport:
    """One-vs-one ranking loss pooled over a batch.

    For every ordered pair of distinct present classes (c, c') the score
    channel c is read at class-c pixels (positives) and class-c' pixels
    (negatives), and the pair's mean surrogate loss is added. Pairs
    touching an entirely absent class are skipped.

    pasted marks pixels injected by the memory bank (one (H, W) bool
    mask per image). With pair_norm="union" (default) each pair term is
    a true mean over the pixels actually present, pasted or not. With
    pair_norm="original" the sums still run over all pixels but the
    denominators are the pre-paste class counts, and pairs whose
    pre-paste count is zero on either side are skipped.
    """
    return _auc_loss("ovo", scores, labels, kind, pasted, pair_norm)


def ova_auc_loss(scores, labels, kind="square", pasted=None, pair_norm="union") -> LossReport:
    """One-vs-all variant: each present class against all other labeled pixels."""
    return _auc_loss("ova", scores, labels, kind, pasted, pair_norm)


def ce_loss(scores, labels) -> LossReport:
    """Mean cross entropy over labeled pixels, probabilities clamped at 1e-12."""
    pooled_s, bins, _, count, spans = _pool(scores, labels)
    grad_flat = np.zeros_like(pooled_s)
    loss = _ce_into(grad_flat, pooled_s, bins, count, 1.0)
    return LossReport(loss=loss, gradients=_scatter(grad_flat, spans))


def combined_loss(scores, labels, kind="square", mode="ovo", lam=0.25,
                  pasted=None, pair_norm="union") -> LossReport:
    """Ranking loss plus lam times cross entropy over one pooling of the batch.

    The per-image gradients are read-only views of one (n, K) buffer.
    """
    if mode not in ("ovo", "ova"):
        raise ValidationError("mode must be 'ovo' or 'ova', got %r" % (mode,))
    if not (lam >= 0.0 and np.isfinite(lam)):
        raise ValidationError("lam must be finite and >= 0, got %r" % (lam,))
    return _auc_loss(mode, scores, labels, kind, pasted, pair_norm, lam)
