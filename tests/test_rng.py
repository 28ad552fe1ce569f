"""PRNG pinning tests.

The generator chain (splitmix64 seeding, xorshift64* streams,
rejection-sampled bounded draws, top-down Fisher-Yates, Box-Muller)
is re-transcribed here line by line, independently of the library
code, and the two are required to agree output-for-output. A known
splitmix64 vector anchors the whole chain to the published algorithm.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cniprobe.rng import Stream, splitmix64_at, substream_seed

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def ref_splitmix64_at(seed: int, k: int) -> int:
    z = (seed + (k + 1) * GAMMA) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


class RefStream:
    """Independent transcription of the xorshift64* stream."""

    def __init__(self, seed: int):
        state = ref_splitmix64_at(seed & MASK, 0)
        self.state = state if state != 0 else GAMMA

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & MASK
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & MASK

    def next_below(self, n: int) -> int:
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]


def test_splitmix64_known_vector():
    # first outputs of splitmix64 for seed 0 (published test vector)
    assert splitmix64_at(0, 0) == 0xE220A8397B1DCDAF
    assert splitmix64_at(0, 1) == 0x6E789E6AA1B965F4


@given(st.integers(min_value=0, max_value=MASK), st.integers(min_value=0, max_value=64))
def test_splitmix64_matches_transcription(seed, k):
    assert splitmix64_at(seed, k) == ref_splitmix64_at(seed, k)


def test_substream_seed_is_splitmix_output():
    for seed in (0, 1, 42, 2**63):
        for k in range(4):
            assert substream_seed(seed, k) == ref_splitmix64_at(seed & MASK, k)


@given(st.integers(min_value=0, max_value=MASK))
@settings(max_examples=30)
def test_stream_matches_transcription(seed):
    ours, ref = Stream(seed), RefStream(seed)
    for _ in range(50):
        assert ours.next_u64() == ref.next_u64()


def test_stream_never_yields_zero():
    s = Stream(0)
    assert all(s.next_u64() != 0 for _ in range(2000))


@given(st.integers(min_value=0, max_value=MASK))
@settings(max_examples=30)
def test_uniform_in_half_open_unit_interval(seed):
    s = Stream(seed)
    for _ in range(100):
        u = s.uniform()
        assert 0.0 < u <= 1.0


@given(st.integers(min_value=0, max_value=1 << 32), st.integers(min_value=1, max_value=1000))
@settings(max_examples=50)
def test_next_below_bounds_and_determinism(seed, n):
    a, b = Stream(seed), Stream(seed)
    draws_a = [a.next_below(n) for _ in range(20)]
    draws_b = [b.next_below(n) for _ in range(20)]
    assert draws_a == draws_b
    assert all(0 <= d < n for d in draws_a)


def test_next_below_rejects_nonpositive_bound():
    s = Stream(1)
    for bad in (0, -3):
        try:
            s.next_below(bad)
            assert False, "expected ValueError"
        except ValueError:
            pass


@given(st.integers(min_value=0, max_value=1 << 32), st.integers(min_value=0, max_value=60))
@settings(max_examples=40)
def test_shuffle_matches_transcription(seed, n):
    items, ref_items = list(range(n)), list(range(n))
    Stream(seed).shuffle(items)
    RefStream(seed).shuffle(ref_items)
    assert items == ref_items


@given(st.lists(st.integers(), max_size=50), st.integers(min_value=0, max_value=1 << 32))
def test_shuffle_is_a_permutation(items, seed):
    shuffled = list(items)
    Stream(seed).shuffle(shuffled)
    assert sorted(shuffled) == sorted(items)


@pytest.mark.parametrize("n", [1, 2, 10, 50, 500])
def test_permutation_is_fisher_yates_over_next_below(n):
    # the shuffle inlines next_below; it must leave the same stream state
    stream, ref = Stream(n), Stream(n)
    items = list(range(n))
    for i in range(n - 1, 0, -1):
        j = ref.next_below(i + 1)
        items[i], items[j] = items[j], items[i]
    assert stream.permutation(n) == items
    assert stream.next_u64() == ref.next_u64()


def test_permutation_contains_each_index_once():
    perm = Stream(9).permutation(100)
    assert sorted(perm) == list(range(100))


def test_gaussian_matches_box_muller_transcription():
    for seed in (0, 7, 123456):
        uni = Stream(seed)
        ref = []
        for _ in range(10):
            u1, u2 = uni.uniform(), uni.uniform()
            r = math.sqrt(-2.0 * math.log(u1))
            ref.append(r * math.cos(2.0 * math.pi * u2))
            ref.append(r * math.sin(2.0 * math.pi * u2))
        got = Stream(seed).gaussians(20)
        np.testing.assert_allclose(got, ref, rtol=0, atol=0)


def test_gaussian_spare_survives_odd_draws():
    a = Stream(5)
    singles = [a.gaussian() for _ in range(6)]
    b = Stream(5)
    np.testing.assert_array_equal(b.gaussians(6), singles)


@pytest.mark.parametrize("n", [0, 1, 2, 31, 1023, 1024, 1025, 2055, 3073])
def test_bulk_gaussians_are_the_scalar_draws(n):
    # the bulk path jumps lanes of 1024 states ahead; these n straddle that
    bulk, scalar = Stream(n + 11), Stream(n + 11)
    for lead in (0, 1, 0, 1):  # an odd scalar draw leaves a spare behind
        for _ in range(lead):
            assert bulk.gaussian() == scalar.gaussian()
        ref = np.array([scalar.gaussian() for _ in range(n)], dtype=np.float64)
        assert bulk.gaussians(n).tobytes() == ref.tobytes()
    assert bulk.gaussian() == scalar.gaussian()
    assert bulk.next_u64() == scalar.next_u64()


def test_gaussian_moments_roughly_standard():
    draws = Stream(2024).gaussians(20000)
    assert abs(draws.mean()) < 0.05
    assert abs(draws.std() - 1.0) < 0.05


def test_streams_with_different_seeds_differ():
    a = [Stream(1).next_u64() for _ in range(1)]
    b = [Stream(2).next_u64() for _ in range(1)]
    assert a != b
