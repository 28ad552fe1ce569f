"""Deterministic PRNG used for all sampling, shuffling and synthetic data.

The generator family is pinned so that k-shot splits and synthetic
benchmarks are reproducible bit-for-bit across runs and across
implementations in other languages:

* seeding / substream derivation: splitmix64,
* the stream itself: xorshift64* (Vigna's multiplier),
* shuffling: Fisher-Yates from the top index down, with rejection
  sampling for unbiased bounded draws,
* uniforms: top 53 bits mapped to (0, 1],
* gaussians: Box-Muller on those uniforms, pairs cached.

Substream k of seed s is the xorshift64* stream seeded with the k-th
splitmix64 output of s; substream ids in use are listed next to the
call sites (dataset generation, batch shuffling, unlabeled batches).
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_XORSHIFT_MULT = 0x2545F4914F6CDD1D


def splitmix64_at(seed: int, k: int) -> int:
    """Return the k-th output (k >= 0) of the splitmix64 sequence for seed."""
    state = (seed + (k + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def substream_seed(seed: int, stream: int) -> int:
    """Derive an independent substream seed from a base seed."""
    return splitmix64_at(seed & _MASK64, stream)


class Stream:
    """xorshift64* stream seeded through splitmix64."""

    def __init__(self, seed: int):
        state = splitmix64_at(seed & _MASK64, 0)
        # xorshift state must never be zero; splitmix output 0 is a
        # 2^-64 event but guard anyway.
        self._state = state if state != 0 else _SPLITMIX_GAMMA
        self._spare_gaussian: float | None = None

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * _XORSHIFT_MULT) & _MASK64

    def next_below(self, n: int) -> int:
        """Unbiased draw from [0, n) by rejection."""
        if n <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def uniform(self) -> float:
        """Uniform in (0, 1]."""
        return ((self.next_u64() >> 11) + 1) * 2.0 ** -53

    def gaussian(self) -> float:
        if self._spare_gaussian is not None:
            z = self._spare_gaussian
            self._spare_gaussian = None
            return z
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_gaussian = r * math.sin(theta)
        return r * math.cos(theta)

    def gaussians(self, n: int) -> np.ndarray:
        return np.array([self.gaussian() for _ in range(n)], dtype=np.float64)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates: i runs from len-1 down to 1, j = draw(i+1).

        ``next_below`` and ``next_u64`` are inlined: same draws and state.
        """
        x, mask, mult = self._state, _MASK64, _XORSHIFT_MULT
        top = (1 << 64) - len(items)  # below every bound's rejection limit
        for n in range(len(items), 1, -1):
            while True:
                x ^= x >> 12
                x = (x ^ (x << 25)) & mask
                x ^= x >> 27
                u = (x * mult) & mask
                if u < top or u < (1 << 64) - (1 << 64) % n:
                    break
            j = u % n
            items[n - 1], items[j] = items[j], items[n - 1]
        self._state = x

    def permutation(self, n: int) -> list[int]:
        items = list(range(n))
        self.shuffle(items)
        return items
