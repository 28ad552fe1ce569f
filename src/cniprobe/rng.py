"""Deterministic PRNG used for all sampling, shuffling and synthetic data.

The generator family is pinned so that k-shot splits and synthetic
benchmarks are reproducible bit-for-bit across runs and across
implementations in other languages:

* seeding / substream derivation: splitmix64,
* the stream itself: xorshift64* (Vigna's multiplier),
* shuffling: Fisher-Yates from the top index down, with rejection
  sampling for unbiased bounded draws (drawn in blocks, same draws),
* uniforms: the top 53 bits of a draw u as ((u >> 11) + 1) / 2^53,
  in (0, 1],
* gaussians: Box-Muller on uniform pairs (u1, u2), the cos value
  first and the sin value kept as the spare for the next draw.

``gaussians(n)`` draws in bulk and returns the bytes of n gaussians
drawn one at a time (tests/test_rng.py transcribes the scalar path),
leaving the same spare and state. xorshift64* is linear
over GF(2), with M the step as a 64x64 bit matrix. So after ``_HEAD``
scalar steps, the k states in hand jump ahead by M^k at once through
eight byte tables, doubling until there are enough; the table of M^2k
is that of M^k applied to itself (Haramoto et al. 2008).
``permutations`` draws a run's shuffles the same way, in blocks of at
most ``_BLOCK`` = 4,096 states, so that a long run's draws do not grow
its peak memory; ``shuffle`` and ``permutation`` are its one-row views. The multiply,
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
_HEAD = 32
_BLOCK = 1 << 12  # most states one ``permutations`` block draws


def _step(x):
    """One xorshift step of an int, or in place of a uint64 array."""
    x ^= x >> 12
    x ^= (x << 25) & _MASK64
    return x ^ (x >> 27)


def _jump(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The uint64 states `x` after M^k, from `table` = ``_jump_table(k)``."""
    octets = x.astype("<u8").view(np.uint8).reshape(-1, 8)
    return np.bitwise_xor.reduce(table[np.arange(8), octets], axis=1).reshape(x.shape)


@functools.cache
def _jump_table(k: int) -> np.ndarray:
    """(8, 256) table, entry [b, v] = M^k (v << 8b), for k = _HEAD * 2^j."""
    if k > _HEAD:  # M^k = M^(k/2) M^(k/2)
        return _jump(_jump_table(k // 2), _jump_table(k // 2))
    byte_shifts = np.arange(0, 64, 8, dtype=np.uint64)[:, None]
    t = np.arange(256, dtype=np.uint64) << byte_shifts
    for _ in range(k):  # M is linear, so stepping each entry applies it
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

    def _draws(self, m: int) -> np.ndarray:
        """m calls of ``next_u64()`` as uint64; see the module docstring."""
        x, head = self._state, []
        for _ in range(min(m, _HEAD)):
            x = _step(x)
            head.append(x)
        states = np.array(head, dtype=np.uint64)
        while (k := len(states)) < m:  # state k + i is M^k of state i
            states = np.concatenate([states, _jump(_jump_table(k), states[:m - k])])
        if m:
            self._state = int(states[-1])
        return states * np.uint64(_XORSHIFT_MULT)

    def gaussians(self, n: int) -> np.ndarray:
        """The next n gaussians, bit for bit as if drawn one at a time."""
        out = np.empty(n, dtype=np.float64)
        start = 0
        if n and self._spare_gaussian is not None:
            out[0], self._spare_gaussian = self._spare_gaussian, None
            start = 1
        u = self._draws(2 * ((n - start + 1) // 2))
        u = ((u >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53  # in (0, 1]
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

    def permutations(self, n: int, count: int):
        """``count`` successive ``permutation(n)`` as int64 arrays, same draws
        and final state, from one ``_draws`` call per block of at most ``_BLOCK``
        states. A draw below 2^64 - n passes every bound's rejection test; if
        one does not, the block rewinds and draws its rows by ``next_below``."""
        rows = max(1, _BLOCK // max(n - 1, 1))
        for lo in range(0, count, rows):
            m, start = min(rows, count - lo), self._state
            if n < 2:  # no draw
                js = [[]] * m
            elif ((draws := self._draws(m * (n - 1)).reshape(m, n - 1))
                  >= np.uint64((1 << 64) - n)).any():
                self._state = start
                js = [[self.next_below(b) for b in range(n, 1, -1)] for _ in range(m)]
            else:
                js = (draws % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
            block = []
            for row in js:
                items = list(range(n))
                for i, j in zip(range(n - 1, 0, -1), row):
                    items[i], items[j] = items[j], items[i]
                block.append(items)
            yield from np.array(block, dtype=np.int64).reshape(m, n)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates: i runs from len-1 down to 1, j = draw(i+1)."""
        items[:] = [items[i] for i in next(self.permutations(len(items), 1))]

    def permutation(self, n: int) -> list[int]:
        return next(self.permutations(n, 1)).tolist()
