"""Adafactor and cosine-schedule tests against straight-line references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cniprobe.errors import ConfigError, ShapeMismatch
from cniprobe.optim import (
    AdafactorConfig,
    AdafactorState,
    ScheduleConfig,
    adafactor_step,
    cosine_lr,
)


def test_vector_single_step_straight_line():
    # hand-computed first step, default config
    cfg = AdafactorConfig()
    p = np.array([2.0, -1.0])
    g = np.array([0.3, 0.0])
    params, grads = {"v": p}, {"v": g.copy()}
    state = AdafactorState()
    adafactor_step(state, params, grads, lr=0.01, cfg=cfg)

    b2 = min(0.999, 1.0 - 1.0 ** -0.8)  # = 0 on the first step
    assert b2 == 0.0
    v = g * g + 1e-30
    u = g / np.sqrt(v)
    u = u / max(1.0, math.sqrt(float(np.mean(u * u))) / 1.0)
    m = 0.1 * u
    expect = np.array([2.0, -1.0]) * (1.0 - 0.01 * 0.01) - 0.01 * m
    np.testing.assert_allclose(params["v"], expect, atol=1e-10)


def test_matrix_single_step_factored_reference():
    cfg = AdafactorConfig(beta1=0.0, weight_decay=0.0)
    g = np.array([[0.5, -0.2], [0.1, 0.4]])
    p = np.zeros((2, 2))
    params, grads = {"m": p}, {"m": g.copy()}
    state = AdafactorState()
    adafactor_step(state, params, grads, lr=0.1, cfg=cfg)

    sq = g * g + 1e-30
    r = sq.mean(axis=1)   # first step: beta2_hat = 0
    c = sq.mean(axis=0)
    vhat = (r / r.mean())[:, None] * c[None, :]
    u = g / np.sqrt(vhat)
    u /= max(1.0, math.sqrt(float(np.mean(u * u))))
    np.testing.assert_allclose(params["m"], -0.1 * u, atol=1e-10)


def test_factored_state_memory_layout():
    state = AdafactorState()
    params = {"m": np.zeros((5, 7)), "v": np.zeros(6)}
    grads = {"m": np.ones((5, 7)), "v": np.ones(6)}
    adafactor_step(state, params, grads, lr=0.01)
    assert state.row["m"].shape == (5,)
    assert state.col["m"].shape == (7,)
    assert "m" not in state.full
    assert state.full["v"].shape == (6,)
    assert "v" not in state.row


def test_zero_gradient_no_decay_leaves_params_unchanged():
    cfg = AdafactorConfig(weight_decay=0.0)
    p = np.array([1.5, -2.5, 3.5])
    params = {"v": p.copy()}
    state = AdafactorState()
    for _ in range(5):
        adafactor_step(state, params, {"v": np.zeros(3)}, lr=0.1, cfg=cfg)
    np.testing.assert_array_equal(params["v"], p)


def test_missing_gradient_entry_freezes_param():
    # the training loop freezes groups by omitting their gradient entries
    frozen = np.array([[1.0, 2.0], [3.0, 4.0]])
    params = {"hot": np.ones(2), "cold": frozen}
    before = frozen.tobytes()
    state = AdafactorState()
    for _ in range(10):
        adafactor_step(state, params, {"hot": np.ones(2)}, lr=0.05)
    assert params["cold"].tobytes() == before
    assert not np.array_equal(params["hot"], np.ones(2))


def test_decay_only_shrinks_geometrically():
    cfg = AdafactorConfig(weight_decay=0.01)
    p0 = np.array([4.0, -8.0])
    params = {"v": p0.copy()}
    state = AdafactorState()
    for _ in range(3):
        adafactor_step(state, params, {"v": np.zeros(2)}, lr=0.1, cfg=cfg)
    np.testing.assert_allclose(params["v"], p0 * (1 - 0.1 * 0.01) ** 3,
                               atol=1e-12)


@given(st.integers(min_value=0, max_value=1 << 16), st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None)
def test_update_rms_bounded_by_lr(seed, steps):
    rng = np.random.default_rng(seed)
    cfg = AdafactorConfig(weight_decay=0.0)
    params = {"m": rng.normal(size=(3, 4)), "v": rng.normal(size=5)}
    state = AdafactorState()
    lr = 0.07
    for _ in range(steps):
        before = {k: v.copy() for k, v in params.items()}
        grads = {"m": rng.normal(size=(3, 4)) * 10.0 ** float(rng.integers(-3, 3)),
                 "v": rng.normal(size=5)}
        adafactor_step(state, params, grads, lr=lr, cfg=cfg)
        for k in params:
            delta = params[k] - before[k]
            rms = math.sqrt(float(np.mean(delta * delta)))
            # clipped update RMS <= 1 and momentum is a convex average
            assert rms <= lr * (1.0 + 1e-9)


def test_second_moment_accumulates_across_steps():
    cfg = AdafactorConfig(beta1=0.0, beta2=0.5, weight_decay=0.0)
    params = {"v": np.zeros(1)}
    state = AdafactorState()
    adafactor_step(state, params, {"v": np.array([1.0])}, lr=0.0, cfg=cfg)
    # t=1: beta2_hat = min(0.5, 0) = 0 -> v = 1
    np.testing.assert_allclose(state.full["v"], [1.0], atol=1e-12)
    adafactor_step(state, params, {"v": np.array([3.0])}, lr=0.0, cfg=cfg)
    # t=2: the schedule term 1 - 2^-0.8 (~0.426) sits below the 0.5 cap
    b2 = min(0.5, 1.0 - 2.0 ** -0.8)
    np.testing.assert_allclose(state.full["v"], [b2 * 1.0 + (1 - b2) * 9.0],
                               atol=1e-9)


def test_step_counter_shared_across_params():
    state = AdafactorState()
    params = {"a": np.zeros(2), "b": np.zeros(2)}
    grads = {"a": np.ones(2), "b": np.ones(2)}
    adafactor_step(state, params, grads, lr=0.01)
    assert state.step == 1


def test_rank3_parameter_rejected():
    state = AdafactorState()
    with pytest.raises(ShapeMismatch):
        adafactor_step(state, {"t": np.zeros((2, 2, 2))},
                       {"t": np.ones((2, 2, 2))}, lr=0.1)


def test_gradient_shape_and_name_mismatches():
    state = AdafactorState()
    with pytest.raises(ShapeMismatch):
        adafactor_step(state, {"v": np.zeros(3)}, {"v": np.ones(4)}, lr=0.1)
    with pytest.raises(ShapeMismatch):
        adafactor_step(state, {"v": np.zeros(3)}, {"w": np.ones(3)}, lr=0.1)


# --- schedule -----------------------------------------------------------------

def test_cosine_schedule_shape():
    cfg = ScheduleConfig(base_lr=1.0, total_steps=100, warmup_steps=10,
                         min_lr=0.1)
    assert cosine_lr(0, cfg) == 0.0
    assert abs(cosine_lr(5, cfg) - 0.5) < 1e-12       # halfway up the warmup
    assert abs(cosine_lr(10, cfg) - 1.0) < 1e-12      # warmup meets the peak
    mid = cosine_lr(55, cfg)                          # cosine midpoint
    assert abs(mid - (0.1 + 0.9 * 0.5)) < 1e-12
    assert abs(cosine_lr(100, cfg) - 0.1) < 1e-12     # floor at the end


def test_cosine_schedule_monotone_after_warmup():
    cfg = ScheduleConfig(base_lr=2.0, total_steps=50, warmup_steps=5)
    values = [cosine_lr(s, cfg) for s in range(5, 51)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_cosine_schedule_no_warmup():
    cfg = ScheduleConfig(base_lr=1.0, total_steps=10)
    assert cosine_lr(0, cfg) == 1.0
    assert abs(cosine_lr(10, cfg)) < 1e-12


def test_schedule_validation():
    with pytest.raises(ConfigError):
        ScheduleConfig(base_lr=0.0, total_steps=10)
    with pytest.raises(ConfigError):
        ScheduleConfig(base_lr=1.0, total_steps=0)
    with pytest.raises(ConfigError):
        ScheduleConfig(base_lr=1.0, total_steps=10, warmup_steps=10)
    cfg = ScheduleConfig(base_lr=1.0, total_steps=10)
    with pytest.raises(ConfigError):
        cosine_lr(11, cfg)
    with pytest.raises(ConfigError):
        cosine_lr(-1, cfg)
