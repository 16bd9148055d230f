"""Portable counter-based pseudorandom generator (splitmix64).

The synthetic data generator must reproduce bit-exactly from a seed on
any platform, including reimplementations in other languages, so it
cannot lean on a host library's generator. This is the splitmix64
finalizer applied to seed + i * GOLDEN for i = 1, 2, ...; every constant
is spelled out below. Uniform doubles take the top 53 bits; normals use
the Box-Muller transform on pairs of uniforms.
"""
from __future__ import annotations

import math

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF
_INV53 = 1.0 / (1 << 53)


def mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * MIX1 & _MASK
    z = (z ^ (z >> 27)) * MIX2 & _MASK
    return z ^ (z >> 31)


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
    return z ^ (z >> np.uint64(31))


class Splitmix64:
    """Deterministic stream of u64s / doubles / normals from one seed."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK
        self.counter = 0

    def next_u64(self) -> int:
        self.counter += 1
        return mix64((self.seed + self.counter * GOLDEN) & _MASK)

    def u64_block(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            return _mix64_vec(np.uint64(self.seed) + idx * np.uint64(GOLDEN))

    def random(self) -> float:
        """One double in [0, 1)."""
        return (self.next_u64() >> 11) * _INV53

    def random_block(self, n: int) -> np.ndarray:
        return (self.u64_block(n) >> np.uint64(11)).astype(np.float64) * _INV53

    def randint(self, bound: int) -> int:
        """Uniform integer in [0, bound), rejection sampled so it is unbiased."""
        if bound <= 0:
            raise ValueError("bound must be positive, got %d" % bound)
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def normal_block(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller; draws ceil(n/2)*2 uniforms."""
        pairs = (n + 1) // 2
        u1 = 1.0 - self.random_block(pairs)  # (0, 1], keeps the log finite
        u2 = self.random_block(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        out = np.empty(pairs * 2)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]
