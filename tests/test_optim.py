"""Adafactor and cosine-schedule tests against straight-line references.

The optimizer steps a ``ModelParams`` buffer; gradients name one freezing
policy's groups, a suffix of the buffer's A, a, q, W, b.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cniprobe.errors import ConfigError, DataError
from cniprobe.model import (TRAINABLE, LossConfig, ModelParams, backward, prefix,
                            smoothed_targets)
from cniprobe.optim import (
    BETA1,
    BETA2,
    CLIP_THRESHOLD,
    EPS1,
    WEIGHT_DECAY,
    AdafactorState,
    adafactor_step,
    cosine_lr,
)


def make_params(c=2, d=2, rng=None, **groups):
    """Zero groups of C classes and D dims, random with `rng`, or as given."""
    shapes = {"A": (d, d), "a": (d,), "q": (d,), "W": (c, d), "b": (c,)}
    draw = (lambda s: rng.normal(size=s)) if rng is not None else np.zeros
    return ModelParams(**{n: groups.get(n, draw(s)) for n, s in shapes.items()})


def test_vector_single_step_straight_line():
    # hand-computed first step
    p = make_params(b=np.array([2.0, -1.0]))
    g = np.array([0.3, 0.0])
    state = AdafactorState()
    adafactor_step(state, p, {"W": np.zeros((2, 2)), "b": g.copy()}, lr=0.01)

    b2 = min(0.999, 1.0 - 1.0 ** -0.8)  # = 0 on the first step
    assert b2 == 0.0
    v = g * g + 1e-30
    u = g / np.sqrt(v)
    u = u / max(1.0, math.sqrt(float(np.mean(u * u))) / 1.0)
    m = 0.1 * u
    expect = np.array([2.0, -1.0]) * (1.0 - 0.01 * 0.01) - 0.01 * m
    np.testing.assert_allclose(p.b, expect, atol=1e-10)


def test_matrix_single_step_factored_reference():
    # zero weights: decoupled decay leaves them zero
    g = np.array([[0.5, -0.2], [0.1, 0.4]])
    p = make_params()
    state = AdafactorState()
    adafactor_step(state, p, {"W": g.copy(), "b": np.ones(2)}, lr=0.1)

    sq = g * g + 1e-30
    r = sq.mean(axis=1)   # first step: beta2_hat = 0
    c = sq.mean(axis=0)
    vhat = (r / r.mean())[:, None] * c[None, :]
    u = g / np.sqrt(vhat)
    u /= max(1.0, math.sqrt(float(np.mean(u * u))))
    np.testing.assert_allclose(p.W, -0.1 * (0.1 * u), atol=1e-10)


def test_factored_state_memory_layout():
    p = make_params(c=5, d=7)
    state = AdafactorState()
    grads = {"W": np.ones((5, 7)), "b": np.ones(5)}
    adafactor_step(state, p, grads, lr=0.01)
    # the matrix keeps n + m second-moment values, the vector all of its own
    assert [(r.shape, c.shape) for r, c, *_ in state.factors.values()] == \
        [((5,), (7,))]
    assert "b" not in state.factors
    assert state.vhat.shape == state.mom.shape == (5 * 7 + 5,)
    np.testing.assert_array_equal(state.vhat[35:], np.ones(5) + EPS1)
    # under ALL each matrix has its own rows and columns in the shared
    # accumulator buffer, D rows for A and C for W
    state = AdafactorState()
    grads = {n: np.ones(p.group(n).shape) for n in TRAINABLE["ALL"]}
    adafactor_step(state, p, grads, lr=0.01)
    assert {n: (r.size, c.size) for n, (r, c, *_) in state.factors.items()} == \
        {"A": (7, 7), "W": (5, 7)}
    assert not np.shares_memory(state.factors["A"][0], state.factors["W"][0])
    assert all(np.shares_memory(v, state.acc)
               for r, c, *_ in state.factors.values() for v in (r, c))


def test_missing_gradient_entry_freezes_param():
    # the training loop freezes groups by omitting their gradient entries
    for policy in ("L", "PL"):
        p = make_params(c=3, d=2, rng=np.random.default_rng(0))
        hot = TRAINABLE[policy]
        before = {n: p.group(n).copy() for n in TRAINABLE["ALL"]}
        state = AdafactorState()
        for _ in range(10):
            adafactor_step(state, p, {n: np.ones(p.group(n).shape) for n in hot},
                           lr=0.05)
        for name in TRAINABLE["ALL"]:
            same = p.group(name).tobytes() == before[name].tobytes()
            assert same == (name not in hot), (policy, name)


def test_decay_only_shrinks_geometrically():
    assert WEIGHT_DECAY == 0.01
    p0 = np.array([4.0, -8.0])
    p = make_params(b=p0)
    state = AdafactorState()
    for _ in range(3):
        adafactor_step(state, p, {"W": np.zeros((2, 2)), "b": np.zeros(2)},
                       lr=0.1)
    np.testing.assert_allclose(p.b, p0 * (1 - 0.1 * 0.01) ** 3, atol=1e-12)


@given(st.integers(min_value=0, max_value=1 << 16), st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None)
def test_update_rms_bounded_by_lr(seed, steps):
    rng = np.random.default_rng(seed)
    p = make_params(c=3, d=4, rng=rng)
    state = AdafactorState()
    lr = 0.07
    for _ in range(steps):
        before = {n: p.group(n).copy() for n in TRAINABLE["ALL"]}
        grads = {n: rng.normal(size=p.group(n).shape)
                 * 10.0 ** float(rng.integers(-3, 3)) for n in TRAINABLE["ALL"]}
        adafactor_step(state, p, grads, lr=lr)
        for k in before:
            delta = p.group(k) - before[k]
            rms = math.sqrt(float(np.mean(delta * delta)))
            # delta = -lr * (m + WEIGHT_DECAY * before): the clipped update
            # RMS <= 1, momentum is a convex average, and decay adds its part
            decay_rms = WEIGHT_DECAY * math.sqrt(float(np.mean(before[k] ** 2)))
            assert rms <= lr * (1.0 + decay_rms) * (1.0 + 1e-9)


def test_second_moment_accumulates_across_steps():
    p = make_params(c=1)
    state = AdafactorState()

    def step(b):
        adafactor_step(state, p, {"W": np.zeros((1, 2)), "b": np.array([b])},
                       lr=0.0)
        return state.vhat[-1:]  # b's span: its full second moment

    # t=1: beta2_hat = min(BETA2, 0) = 0 -> v = 1
    np.testing.assert_allclose(step(1.0), [1.0], atol=1e-12)
    # t=2: the schedule term 1 - 2^-0.8 (~0.426) sits below the cap
    b2 = 1.0 - 2.0 ** -0.8
    v2 = b2 * 1.0 + (1 - b2) * 9.0
    np.testing.assert_allclose(step(3.0), [v2], atol=1e-9)
    # t=10000: 1 - t^-0.8 (~0.9994) is above the cap, so BETA2 applies
    state.step = 9999
    np.testing.assert_allclose(step(2.0), [BETA2 * v2 + (1 - BETA2) * 4.0],
                               atol=1e-9)


def test_step_counter_shared_across_params():
    state = AdafactorState()
    p = make_params()
    adafactor_step(state, p, {"q": np.ones(2), "W": np.ones((2, 2)),
                              "b": np.ones(2)}, lr=0.01)
    assert state.step == 1


def test_rank3_parameter_rejected():
    state = AdafactorState()
    with pytest.raises(DataError, match=r"\('W', \(2, 2, 1\)\).* do not fit"):
        adafactor_step(state, make_params(), {"W": np.ones((2, 2, 1)),
                                              "b": np.ones(2)}, lr=0.1)


def test_gradient_shape_and_name_mismatches():
    p = make_params()
    w = np.ones((2, 2))
    not_groups = "are not a policy's groups"
    for grads, why in (({"W": w, "b": np.ones(3)}, "do not fit"),  # wrong shape
                       ({"W": w, "w": np.ones(2)}, not_groups),    # unknown group
                       ({"b": np.ones(2)}, not_groups), ({"W": w}, not_groups),
                       ({"A": np.eye(2), "b": np.ones(2)}, not_groups),
                       ({"b": np.ones(2), "W": w}, not_groups),    # out of order
                       ({}, not_groups)):
        with pytest.raises(DataError, match=why):
            adafactor_step(AdafactorState(), p, grads, lr=0.1)
    state = AdafactorState()
    adafactor_step(state, p, {"W": w, "b": np.ones(2)}, lr=0.1)
    with pytest.raises(DataError, match="do not fit"):  # sized for its groups
        adafactor_step(state, p, {"q": np.ones(2), "W": w, "b": np.ones(2)},
                       lr=0.1)


@pytest.mark.parametrize("policy", ["L", "PL", "ALL"])
def test_gradient_views_are_the_update_buffer_in_order(policy):
    p = make_params(c=3, d=4)
    names = TRAINABLE[policy]
    state = AdafactorState()
    views = state.gradients(p, names)
    assert tuple(views) == names
    assert [v.shape for v in views.values()] == [p.group(n).shape for n in names]
    assert all(np.shares_memory(v, state.update) for v in views.values())
    assert state.gradients(p, names) is views
    state.update[:] = np.arange(state.update.size)
    flat = np.concatenate([v.ravel() for v in views.values()])
    assert flat.tolist() == list(range(state.update.size))


def test_started_state_gives_no_views_of_other_groups():
    p = make_params()
    state = AdafactorState()
    state.gradients(p, TRAINABLE["PL"])
    for policy in ("L", "ALL"):
        with pytest.raises(DataError, match="do not fit"):
            state.gradients(p, TRAINABLE[policy])
    state = AdafactorState()  # started by a step on a dict of its own
    adafactor_step(state, p, {"W": np.ones((2, 2)), "b": np.ones(2)}, lr=0.1)
    with pytest.raises(DataError, match="do not fit"):
        state.gradients(p, TRAINABLE["ALL"])
    with pytest.raises(DataError, match="are not a policy's groups"):
        AdafactorState().gradients(p, ("b", "W"))


@pytest.mark.parametrize("policy", ["L", "PL", "ALL"])
def test_steps_on_own_views_equal_steps_on_new_dicts(policy):
    # backward writes into the state's views and the step reads them where
    # they lie; a new dict per step is checked and copied in
    rng = np.random.default_rng(41)
    p0 = make_params(c=10, d=8, rng=rng)
    p0.A[:] += 3.0 * np.eye(8)  # keep every pooled row well away from zero
    names = TRAINABLE[policy]
    batches = [(rng.normal(size=(4, 3, 8)), rng.integers(0, 10, size=4))
               for _ in range(200)]
    cfg = LossConfig(anchor_lambda=0.1)
    anchor = {n: p0.group(n).copy() for n in names}
    runs = []
    for own in (True, False):
        p, state = p0.copy(), AdafactorState()
        out = state.gradients(p, names) if own else None
        for step, (tokens, labels) in enumerate(batches, 1):
            targets = smoothed_targets(labels, 10, cfg.label_smoothing)
            grads = backward(p, prefix(p, tokens, policy), targets, anchor, cfg,
                             policy, out=out)
            assert (grads is state.grads) == own
            adafactor_step(state, p, grads, lr=0.05 / step)
        runs.append((p.flat.tobytes(), state.mom.tobytes(), state.vhat.tobytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] != p0.flat.tobytes()


# --- schedule -----------------------------------------------------------------

def test_cosine_schedule_shape():
    sched = (100, 2.0)  # total_steps, base_lr
    assert cosine_lr(0, *sched) == 2.0                # the peak at the start
    assert abs(cosine_lr(50, *sched) - 1.0) < 1e-12   # cosine midpoint
    quarter = 1.0 + math.cos(math.pi / 4)
    assert abs(cosine_lr(25, *sched) - quarter) < 1e-12
    assert abs(cosine_lr(100, *sched)) < 1e-12        # zero at the end
    # bit for bit the warmup-and-floor schedule it replaced, at warmup 0, floor 0
    for total, base in ((1, 1e-3), (7, 5e-3), (200, 1e-3), (3200, 1e-3)):
        for step in range(total + 1):
            frac = (step - 0) / (total - 0)
            old = 0.0 + (base - 0.0) * 0.5 * (1.0 + math.cos(math.pi * frac))
            assert cosine_lr(step, total, base) == old


def test_cosine_schedule_never_rises():
    values = [cosine_lr(s, 50, 2.0) for s in range(51)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_cosine_schedule_runs_from_base_lr_to_zero():
    assert cosine_lr(0, 10, 1.0) == 1.0
    assert abs(cosine_lr(10, 10, 1.0)) < 1e-12


def test_schedule_validation():
    # the settings are checked by TrainConfig; the step range here
    with pytest.raises(ConfigError):
        cosine_lr(11, 10, 1.0)
    with pytest.raises(ConfigError):
        cosine_lr(-1, 10, 1.0)


def _textbook_step(state, params, grads, lr):
    """The step group by group, with ``np.mean`` and ``max(1, rms)``
    written out and dict-keyed moments: the reference."""
    state.step += 1
    b2 = min(BETA2, 1.0 - math.pow(state.step, -0.8))
    for name, grad in grads.items():
        p = params[name]
        if name not in state.mom:
            state.mom[name] = np.zeros(p.shape)
            if p.ndim == 2:
                state.row[name] = np.zeros(p.shape[0])
                state.col[name] = np.zeros(p.shape[1])
            else:
                state.full[name] = np.zeros(p.shape)
        sq = grad * grad + EPS1
        if p.ndim == 2:
            r, c = state.row[name], state.col[name]
            r *= b2
            r += (1.0 - b2) * sq.mean(axis=1)
            c *= b2
            c += (1.0 - b2) * sq.mean(axis=0)
            vhat = (r / r.mean())[:, None] * c[None, :]
        else:
            v = state.full[name]
            v *= b2
            v += (1.0 - b2) * sq
            vhat = v
        update = grad / np.sqrt(vhat)
        rms = math.sqrt(float(np.mean(update * update)))
        update /= max(1.0, rms / CLIP_THRESHOLD)
        m = state.mom[name]
        m *= BETA1
        m += (1.0 - BETA1) * update
        p *= 1.0 - lr * WEIGHT_DECAY
        p -= lr * m


def test_step_equals_textbook_reference_bit_for_bit():
    for policy in ("ALL", "PL", "L"):
        rng = np.random.default_rng(3)
        params = make_params(c=10, d=8, rng=rng)
        names = TRAINABLE[policy]
        ref = {n: params.group(n).copy() for n in TRAINABLE["ALL"]}
        state = AdafactorState()
        ref_state = SimpleNamespace(step=0, mom={}, row={}, col={}, full={})
        for step in range(1, 41):
            grads = {n: rng.normal(size=ref[n].shape) * 10.0 ** rng.integers(-6, 3)
                     for n in names}
            lr = 1e-3 / step
            adafactor_step(state, params, grads, lr)
            _textbook_step(ref_state, ref, grads, lr)
        for n in TRAINABLE["ALL"]:
            assert params.group(n).tobytes() == ref[n].tobytes(), (policy, n)
        mom = np.concatenate([ref_state.mom[n].ravel() for n in names])
        assert state.mom.tobytes() == mom.tobytes(), policy
        for n, (r, c, *_) in state.factors.items():
            assert r.tobytes() == ref_state.row[n].tobytes(), (policy, n)
            assert c.tobytes() == ref_state.col[n].tobytes(), (policy, n)
        lo = state.vhat.size - ref_state.full["b"].size
        assert state.vhat[lo:].tobytes() == ref_state.full["b"].tobytes()
