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

from cniprobe import rng
from cniprobe.rng import Stream, splitmix64_at, substream_seed

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def ref_splitmix64_at(seed: int, k: int) -> int:
    z = (seed + (k + 1) * GAMMA) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


class RefStream:
    """Independent transcription of the xorshift64* stream, drawing one
    value at a time."""

    def __init__(self, seed: int):
        state = ref_splitmix64_at(seed & MASK, 0)
        self.state = state if state != 0 else GAMMA
        self.spare = None

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

    def uniform(self) -> float:
        """Uniform in (0, 1]."""
        return ((self.next_u64() >> 11) + 1) * 2.0 ** -53

    def gaussian(self) -> float:
        """Box-Muller: the cos value now, the sin value on the next call."""
        if self.spare is not None:
            z, self.spare = self.spare, None
            return z
        u1, u2 = self.uniform(), self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self.spare = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

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
    # the uniforms under every gaussian: so log(u1) is finite
    s = RefStream(seed)
    for _ in range(100):
        u = s.uniform()
        assert 0.0 < u <= 1.0
    assert np.isfinite(Stream(seed).gaussians(200)).all()


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


@pytest.mark.parametrize("n", [1, 2, 10, 33, 50, 64, 65, 500, 1025])
def test_permutation_is_fisher_yates_over_next_below(n):
    # the shuffle draws in bulk; it must leave the same stream state
    stream, ref = Stream(n), Stream(n)
    items = list(range(n))
    for i in range(n - 1, 0, -1):
        j = ref.next_below(i + 1)
        items[i], items[j] = items[j], items[i]
    assert stream.permutation(n) == items
    assert stream.next_u64() == ref.next_u64()


def _unshift(y: int, shift: int) -> int:
    """x with x ^ (x >> shift) == y for shift > 0, x ^ (x << -shift) for < 0."""
    x = y
    for _ in range(64 // abs(shift)):
        x = y ^ ((x >> shift) if shift > 0 else ((x << -shift) & MASK))
    return x


def _state_before(x: int) -> int:
    """The xorshift state whose step gives x: the three shifts undone."""
    return _unshift(_unshift(_unshift(x, 27), -25), 12)


def test_state_before_inverts_the_step():
    for seed in (0, 1, 99):
        ref = RefStream(seed)
        x = ref.state
        ref.next_u64()
        assert _state_before(ref.state) == x


@pytest.mark.parametrize("draw, u", [
    (0, MASK),             # rejected by the bound 10
    (0, (1 << 64) - 10),   # at the threshold, kept by every bound
    (4, MASK - 1),         # rejected by the bound 6, at the fifth draw
], ids=["rejected", "kept", "rejected-later"])
def test_shuffle_falls_back_when_a_draw_may_be_rejected(draw, u):
    n = 10
    x = (u * pow(0x2545F4914F6CDD1D, -1, 1 << 64)) & MASK  # x * mult = u
    for _ in range(draw + 1):
        x = _state_before(x)
    stream, ref = Stream(0), RefStream(0)
    stream._state = ref.state = x
    items, ref_items = list(range(n)), list(range(n))
    stream.shuffle(items)
    ref.shuffle(ref_items)
    assert items == ref_items
    assert stream.next_u64() == ref.next_u64()


def _ref_permutations(ref: RefStream, n: int, count: int) -> list[list[int]]:
    rows = []
    for _ in range(count):
        rows.append(list(range(n)))
        ref.shuffle(rows[-1])
    return rows


def _block_rows(n: int) -> int:
    """The rows of one ``permutations`` block of n items."""
    return max(1, rng._BLOCK // max(n - 1, 1))


@pytest.mark.parametrize("block", [None, 1, 7])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 50, 500])
def test_permutations_are_successive_permutations(n, block, monkeypatch):
    # block 1 and 7 make every n cross blocks within a few rows; n < 2
    # draws nothing, as the transcription's next draw shows
    if block is not None:
        monkeypatch.setattr(rng, "_BLOCK", block)
    rows = _block_rows(n)
    for count in sorted({0, 1, rows - 1, rows, rows + 1, 200}):
        seed = 1000 * n + count
        stream, ref, single = Stream(seed), RefStream(seed), Stream(seed)
        got = list(stream.permutations(n, count))
        assert all(p.dtype == np.int64 and p.shape == (n,) for p in got)
        expected = _ref_permutations(ref, n, count)
        assert [p.tolist() for p in got] == expected
        assert [single.permutation(n) for _ in range(count)] == expected
        assert stream.next_u64() == ref.next_u64() == single.next_u64()


@pytest.mark.parametrize("n", [2, 10, 500, 5000])
def test_permutations_draw_at_most_a_block_of_states_at_once(n, monkeypatch):
    # the block bound keeps a long run's draws from growing its peak memory
    sizes, draws = [], Stream._draws
    monkeypatch.setattr(Stream, "_draws",
                        lambda self, m: sizes.append(m) or draws(self, m))
    list(Stream(n).permutations(n, 3 * _block_rows(n)))
    assert sizes == [_block_rows(n) * (n - 1)] * 3
    assert max(sizes) <= max(rng._BLOCK, n - 1)


@pytest.mark.parametrize("u", [MASK, (1 << 64) - 10], ids=["rejected", "kept"])
def test_permutations_fall_back_for_a_block_with_a_rejectable_draw(u):
    # u is the first draw of the block's second row, whose bound is 10;
    # the next block, one row, is drawn in bulk again
    n, draw = 10, 9
    count = _block_rows(n) + 1
    x = (u * pow(0x2545F4914F6CDD1D, -1, 1 << 64)) & MASK  # x * mult = u
    for _ in range(draw + 1):
        x = _state_before(x)
    stream, ref = Stream(0), RefStream(0)
    stream._state = ref.state = x
    got = [p.tolist() for p in stream.permutations(n, count)]
    assert got == _ref_permutations(ref, n, count)
    assert stream.next_u64() == ref.next_u64()


def test_permutation_contains_each_index_once():
    perm = Stream(9).permutation(100)
    assert sorted(perm) == list(range(100))


def test_gaussian_matches_box_muller_transcription():
    for seed in (0, 7, 123456):
        ref = RefStream(seed)
        got = Stream(seed).gaussians(20)
        np.testing.assert_allclose(got, [ref.gaussian() for _ in range(20)],
                                   rtol=0, atol=0)


def test_gaussian_spare_survives_odd_draws():
    a, ref = Stream(5), RefStream(5)
    singles = np.concatenate([a.gaussians(1) for _ in range(6)])
    np.testing.assert_array_equal(singles, [ref.gaussian() for _ in range(6)])
    np.testing.assert_array_equal(Stream(5).gaussians(6), singles)


@pytest.mark.parametrize("n", [0, 1, 2, 31, 32, 33, 64, 65, 1023, 1024, 1025,
                               2055, 3073, 4096, 4097, 6400])
def test_bulk_gaussians_are_the_scalar_draws(n):
    # the bulk path takes 32 scalar states, then doubles the states it has
    # by jumping each ahead; these n (2n uniforms) straddle the doublings
    bulk, scalar = Stream(n + 11), RefStream(n + 11)
    for lead in (0, 1, 0, 1):  # an odd single draw leaves a spare behind
        for _ in range(lead):
            assert bulk.gaussians(1)[0] == scalar.gaussian()
        ref = np.array([scalar.gaussian() for _ in range(n)], dtype=np.float64)
        assert bulk.gaussians(n).tobytes() == ref.tobytes()
    assert bulk.gaussians(1)[0] == scalar.gaussian()
    assert bulk.next_u64() == scalar.next_u64()


def test_gaussian_moments_roughly_standard():
    draws = Stream(2024).gaussians(20000)
    assert abs(draws.mean()) < 0.05
    assert abs(draws.std() - 1.0) < 0.05


def test_streams_with_different_seeds_differ():
    a = [Stream(1).next_u64() for _ in range(1)]
    b = [Stream(2).next_u64() for _ in range(1)]
    assert a != b
