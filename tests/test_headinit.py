"""Head initialization: prompt averaging oracle and the three modes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cniprobe.errors import ConfigError, DataError, NumericalError
from cniprobe.headinit import (
    HeadInitSpec,
    MODE_CNI,
    MODE_PARTIAL,
    MODE_RANDOM,
    TextEmbeddingBank,
    average_text_embeddings,
    init_head,
)
from cniprobe.model import init_params


def _bank(arr):
    return TextEmbeddingBank(embeddings=np.asarray(arr, dtype=np.float64))


def loop_average(emb):
    """Scalar-loop reference: mean over prompts, then L2 normalize."""
    n, c, d = emb.shape
    out = np.zeros((c, d))
    for ci in range(c):
        for di in range(d):
            s = 0.0
            for ni in range(n):
                s += emb[ni, ci, di]
            out[ci, di] = s / n
        nrm = sum(out[ci, di] ** 2 for di in range(d)) ** 0.5
        for di in range(d):
            out[ci, di] /= nrm
    return out


@given(st.integers(min_value=0, max_value=1 << 16))
@settings(max_examples=30, deadline=None)
def test_average_matches_loop_reference(seed):
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(3, 2 + seed % 3, 5))
    got = average_text_embeddings(_bank(emb))
    np.testing.assert_allclose(got, loop_average(emb), atol=1e-12)


def test_average_worked_example():
    # two prompts per class; class 0 averages to the diagonal direction
    emb = np.array([
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        [[0.0, 1.0], [0.0, 1.0], [1.0, 1.0]],
    ])
    avg = average_text_embeddings(_bank(emb))
    np.testing.assert_allclose(avg[0], [0.70710678, 0.70710678], atol=1e-8)
    np.testing.assert_allclose(avg[1], [0.0, 1.0], atol=1e-12)


def test_average_rows_are_unit_norm():
    rng = np.random.default_rng(3)
    avg = average_text_embeddings(_bank(rng.normal(size=(5, 4, 7))))
    np.testing.assert_allclose(np.linalg.norm(avg, axis=1), 1.0, atol=1e-12)


def test_average_zero_norm_row_detected():
    emb = np.array([
        [[1.0, 0.0], [1.0, 0.0]],
        [[-1.0, 0.0], [1.0, 0.0]],
    ])
    with pytest.raises(NumericalError,
                       match="^mean embedding for class 0 has zero norm$"):
        average_text_embeddings(_bank(emb))


@given(st.integers(min_value=0, max_value=1 << 16))
@settings(max_examples=25, deadline=None)
def test_average_invariant_to_prompt_order_and_scale(seed):
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(4, 3, 6))
    base = average_text_embeddings(_bank(emb))
    perm = rng.permutation(4)
    np.testing.assert_allclose(
        average_text_embeddings(_bank(emb[perm])), base, atol=1e-12)
    np.testing.assert_allclose(
        average_text_embeddings(_bank(3.7 * emb)), base, atol=1e-12)


# --- init modes ---------------------------------------------------------------

def _avg(c=4, d=6, seed=0):
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(3, c, d))
    return average_text_embeddings(_bank(emb))


def _text_rows(W, avg):
    """The classes whose head row is bit-equal to their averaged text row."""
    return [c for c in range(len(W)) if W[c].tobytes() == avg[c].tobytes()]


def test_cni_copies_rows_exactly():
    avg = _avg()
    W = init_head(HeadInitSpec(mode=MODE_CNI), avg, 4, 6)
    np.testing.assert_array_equal(W, avg)
    assert W is not avg  # defensive copy
    np.testing.assert_array_equal(init_params(W).b, np.zeros(4))


def test_random_rows_unit_norm_and_seeded():
    avg = np.zeros((5, 8))  # checked for its shape, not used
    a = init_head(HeadInitSpec(mode=MODE_RANDOM, seed=4), avg, 5, 8)
    b = init_head(HeadInitSpec(mode=MODE_RANDOM, seed=4), avg, 5, 8)
    c = init_head(HeadInitSpec(mode=MODE_RANDOM, seed=5), avg, 5, 8)
    np.testing.assert_array_equal(a, b)
    assert a.tobytes() != c.tobytes()
    np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)


def test_partial_row_counts_follow_floor():
    avg = _avg(c=10, d=6)
    for fraction, expected in [(0.0, 0), (0.19, 1), (0.5, 5), (0.99, 9), (1.0, 10)]:
        W = init_head(HeadInitSpec(mode=MODE_PARTIAL, fraction=fraction, seed=1),
                      avg, 10, 6)
        assert len(_text_rows(W, avg)) == expected


def test_partial_boundaries_match_pure_modes():
    avg = _avg(c=6, d=5, seed=2)
    all_text = init_head(HeadInitSpec(mode=MODE_PARTIAL, fraction=1.0, seed=3),
                         avg, 6, 5)
    np.testing.assert_array_equal(all_text, avg)
    none_text = init_head(HeadInitSpec(mode=MODE_PARTIAL, fraction=0.0, seed=3),
                          avg, 6, 5)
    assert _text_rows(none_text, avg) == []
    np.testing.assert_allclose(np.linalg.norm(none_text, axis=1), 1.0,
                               atol=1e-12)


def test_partial_text_rows_copy_average():
    avg = _avg(c=8, d=4, seed=5)
    W = init_head(HeadInitSpec(mode=MODE_PARTIAL, fraction=0.5, seed=7),
                  avg, 8, 4)
    text = _text_rows(W, avg)
    assert len(text) == 4  # floor(0.5 * 8)
    for c in range(8):
        if c not in text:
            assert abs(np.linalg.norm(W[c]) - 1.0) < 1e-12


def test_partial_selection_is_seeded():
    avg = _avg(c=10, d=4)
    pick = lambda s: init_head(
        HeadInitSpec(mode=MODE_PARTIAL, fraction=0.5, seed=s), avg, 10, 4
    ).tobytes()
    assert pick(0) == pick(0)
    assert any(pick(0) != pick(s) for s in range(1, 6))


def test_spec_validation():
    with pytest.raises(ConfigError):
        HeadInitSpec(mode="bogus")
    with pytest.raises(ConfigError):
        HeadInitSpec(mode=MODE_PARTIAL)  # fraction required
    with pytest.raises(ConfigError):
        HeadInitSpec(mode=MODE_PARTIAL, fraction=1.5)


def test_cni_requires_average():
    for mode in (MODE_CNI, MODE_RANDOM):  # every mode checks the shape
        with pytest.raises(DataError, match=r"shape \(3, 5\) != \(3, 4\)"):
            init_head(HeadInitSpec(mode=mode), np.zeros((3, 5)), 3, 4)


def test_bank_validation():
    with pytest.raises(DataError, match=r"must have shape \(N, C, D\)"):
        _bank(np.zeros((2, 3)))
    with pytest.raises(DataError, match="C>=2"):
        _bank(np.zeros((2, 1, 3)))
    with pytest.raises(DataError, match="NaN or Inf"):
        _bank(np.full((2, 3, 2), np.nan))
