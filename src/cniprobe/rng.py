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

``gaussians(n)`` is the bulk path and returns the bytes of n calls of
``gaussian()``, leaving the same spare and state. xorshift64* is linear
over GF(2), so after the first ``_LANES`` states, which come from the
scalar recurrence, every lane jumps ahead by M^_LANES at once through
eight byte tables (M is the step as a 64x64 bit matrix). The multiply,
shift, square root and products are exact in numpy; ``log``, ``cos``
and ``sin`` stay on ``math`` (the C library), because numpy's SIMD
float64 ``log`` does not round every input as ``math.log`` does.

Substream k of seed s is the xorshift64* stream seeded with the k-th
splitmix64 output of s; substream ids in use are listed next to the
call sites (dataset generation, batch shuffling, unlabeled batches).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NumericalError

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_XORSHIFT_MULT = 0x2545F4914F6CDD1D
_LANES = 1024


def _step(x):
    """One xorshift step of an int, or in place of a uint64 array."""
    x ^= x >> 12
    x ^= (x << 25) & _MASK64
    return x ^ (x >> 27)


@functools.cache
def _jump_tables() -> np.ndarray:
    """(8, 256) tables: entry [b, v] is M^_LANES (v << 8b); built on use."""
    byte_shifts = np.arange(0, 64, 8, dtype=np.uint64)[:, None]
    t = np.arange(256, dtype=np.uint64) << byte_shifts
    for _ in range(_LANES):  # M is linear, so stepping each entry applies it
        t = _step(t)
    return t


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
        self._state = x = _step(self._state)
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

    def _uniforms(self, m: int) -> np.ndarray:
        """m calls of ``uniform()`` as an array; see the module docstring."""
        x, head = self._state, []
        for _ in range(min(m, _LANES)):
            x = _step(x)
            head.append(x)
        rows = [np.array(head, dtype=np.uint64)]
        for _ in range(-(-m // _LANES) - 1):
            octets = rows[-1].astype("<u8").view(np.uint8).reshape(-1, 8)
            rows.append(np.bitwise_xor.reduce(
                _jump_tables()[np.arange(8), octets], axis=1))
        states = np.concatenate(rows)[:m]
        if m:
            self._state = int(states[-1])
        out = states * np.uint64(_XORSHIFT_MULT)
        return ((out >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53

    def gaussians(self, n: int) -> np.ndarray:
        """n calls of ``gaussian()`` in bulk, bit for bit."""
        out = np.empty(n, dtype=np.float64)
        start = 0
        if n and self._spare_gaussian is not None:
            out[0], self._spare_gaussian = self._spare_gaussian, None
            start = 1
        u = self._uniforms(2 * ((n - start + 1) // 2))
        r = np.sqrt(-2.0 * np.fromiter(map(math.log, u[0::2].tolist()), float))
        theta = (2.0 * math.pi * u[1::2]).tolist()
        z = np.empty(len(u), dtype=np.float64)
        z[0::2] = r * np.fromiter(map(math.cos, theta), float)
        z[1::2] = r * np.fromiter(map(math.sin, theta), float)
        out[start:] = z[:n - start]
        if (n - start) % 2:
            self._spare_gaussian = float(z[-1])
        return out

    def unit_rows(self, count: int, dim: int, base: np.ndarray | None = None,
                  noise: float = 1.0) -> np.ndarray:
        """(count, dim) rows normalize(base + noise * gaussians(dim)) in order.

        ``base`` (dim,) or (count, dim) is copied, with no draw, at noise 0.
        The stacked ``matmul`` (a dot per row) keeps ``np.linalg.norm``'s bits.
        A norm below 1e-12 or one that overflows raises NumericalError.
        """
        if base is not None and noise == 0.0:
            return np.broadcast_to(base, (count, dim)).copy()
        v = self.gaussians(count * dim).reshape(count, dim)
        with np.errstate(over="ignore", invalid="ignore"):
            if base is not None:
                v = base + noise * v
            norms = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
        if not np.all((norms >= 1e-12) & (norms < np.inf)):
            raise NumericalError("a gaussian row's norm is < 1e-12 or not finite")
        return v / norms[:, None]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates: i runs from len-1 down to 1, j = draw(i+1).

        ``next_below`` and ``next_u64`` are inlined (keep ``_step`` in sync):
        same draws and state.
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
