"""Reproducible pseudo-random numbers for seeded verification runs.

The generator is splitmix64 (Steele, Lea & Flood's mix with Weyl increment
0x9E3779B97F4A7C15), chosen because it is trivial to re-implement bit-for-bit
in any language: verification runs here must be reproducible across platforms,
so the platform RNG is deliberately not used.
"""

from __future__ import annotations

import numpy as np

from .errors import size

_MASK = (1 << 64) - 1
_WEYL = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64 stream seeded with an unsigned 64-bit integer."""

    def __init__(self, seed: int):
        self._state = size(seed, "seed") & _MASK

    def next_uint64(self) -> int:
        self._state = (self._state + _WEYL) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform01(self) -> float:
        """Uniform double in [0, 1) using the top 53 bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def uniform(self, n: int) -> np.ndarray:
        """Array of n uniform doubles in [-1, 1)."""
        return np.array([2.0 * self.uniform01() - 1.0 for _ in range(size(n, "n"))])

    def integers(self, n: int, high: int) -> np.ndarray:
        """Array of n integers uniform in [0, high]."""
        return np.array([int(self.uniform01() * (high + 1)) for _ in range(size(n, "n"))],
                        dtype=np.int64)


def random_kernel(M: int, seed: int) -> np.ndarray:
    """Seeded random kernel coefficients a_0..a_M, entries uniform in [-1, 1)."""
    return SplitMix64(seed).uniform(size(M, "M") + 1)
