"""Mini-batch class coverage: how many images until every class shows up.

With classes appearing independently (class c with probability p[c] per
image), the union bound gives P(some class absent from a batch of B)
<= K * (1 - p_min)^B. The smallest B pushing that bound under delta is
the closed form below; the simulator estimates the true failure rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_integer
from .grids import ClassStats

_CHUNK_CELLS = 4_000_000


def union_bound(num_classes: int, p_min: float, batch_size: int) -> float:
    """K * (1 - p_min)^B, the all-classes-covered failure bound."""
    if require_integer(num_classes, "num_classes") < 1:
        raise ValidationError("num_classes must be >= 1, got %d" % num_classes)
    if not (0.0 < p_min <= 1.0):
        raise ValidationError("p_min must be in (0, 1], got %r" % (p_min,))
    if require_integer(batch_size, "batch_size") < 0:
        raise ValidationError("batch_size must be >= 0, got %d" % batch_size)
    return num_classes * (1.0 - p_min) ** batch_size


def required_batch_size(num_classes: int, p_min: float, delta: float) -> int:
    """Smallest B with K * (1 - p_min)^B <= delta.

    Solves B >= ln(delta / K) / ln(1 - p_min) and then nudges the
    integer answer so the returned B is exactly the smallest one
    satisfying the bound, immune to floating point drift in the logs.
    """
    if require_integer(num_classes, "num_classes") < 1:
        raise ValidationError("num_classes must be >= 1, got %d" % num_classes)
    if not (0.0 < delta < 1.0):
        raise ValidationError("delta must be in (0, 1), got %r" % (delta,))
    if p_min <= 0.0:
        raise ValidationError("class never present: no finite batch size covers it")
    if not (p_min <= 1.0):  # NaN fails here too
        raise ValidationError("p_min must be in (0, 1], got %r" % (p_min,))
    if p_min == 1.0:
        return 1
    est = math.log(delta / num_classes) / math.log(1.0 - p_min)
    b = max(1, int(math.ceil(est)))
    while b > 1 and union_bound(num_classes, p_min, b - 1) <= delta:
        b -= 1
    while union_bound(num_classes, p_min, b) > delta:
        b += 1
    return b


@dataclass(frozen=True)
class CoverageResult:
    batch_size: int
    trials: int
    failures: int

    @property
    def failure_rate(self) -> float:
        return self.failures / self.trials

    @property
    def standard_error(self) -> float:
        r = self.failure_rate
        return math.sqrt(max(r * (1.0 - r), 0.0) / self.trials)


def simulate_coverage(presence, batch_size: int, trials: int, seed: int = 0) -> CoverageResult:
    """Monte Carlo estimate of P(some class missing from a batch).

    Class c misses all ``batch_size`` independent images with probability
    (1 - presence[c])^batch_size; each trial draws one uniform per class
    against it and fails when any class is absent. The cost does not grow
    with the batch size, and under one seed failures never rise with it.
    """
    p = np.asarray(presence, dtype=np.float64).ravel()
    if p.size < 1:
        raise ValidationError("presence vector must be nonempty")
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails here too
        raise ValidationError("presence probabilities must lie in [0, 1]")
    if require_integer(batch_size, "batch_size") < 1:
        raise ValidationError("batch_size must be >= 1, got %d" % batch_size)
    if require_integer(trials, "trials") < 1:
        raise ValidationError("trials must be >= 1, got %d" % trials)
    absent = (1.0 - p) ** batch_size  # P(class c misses all B images)
    rng = np.random.default_rng(seed)
    chunk = max(1, _CHUNK_CELLS // p.size)
    failures = 0
    for done in range(0, trials, chunk):
        t = min(chunk, trials - done)
        failures += int(np.count_nonzero((rng.random((t, p.size)) < absent).any(axis=1)))
    return CoverageResult(batch_size=batch_size, trials=trials, failures=failures)


def empirical_presence(stats: ClassStats) -> np.ndarray:
    """Fraction of images containing each class, (K,) float64."""
    return stats.present.mean(axis=0)
