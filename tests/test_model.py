"""Forward/backward pipeline tests.

A scalar-loop transcription of the per-example pipeline pins the
vectorized forward pass; analytic gradients are checked against
central finite differences of the combined training loss for every
freezing policy, including the distillation term at temperature != 1.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cniprobe.errors import (
    BadTeacherDistribution,
    ConfigError,
    DataError,
    ShapeMismatch,
    ZeroNormPooled,
)
from cniprobe.headinit import Head
from cniprobe.model import (
    LossConfig,
    ModelParams,
    backward,
    forward,
    forward_from,
    init_params,
    loss_total,
    prefix,
    smoothed_targets,
    teacher_targets,
    trainable_names,
)


def random_params(rng, c=3, d=4, logit_scale=10.0):
    return ModelParams(
        A=rng.normal(size=(d, d)) * 0.5 + np.eye(d),
        a=rng.normal(size=d) * 0.1,
        q=rng.normal(size=d) * 0.5,
        W=rng.normal(size=(c, d)),
        b=rng.normal(size=c) * 0.1,
        logit_scale=logit_scale,
    )


def loop_forward(p, tokens):
    """Independent scalar-loop pipeline for one batch."""
    batch, t_count, d = tokens.shape
    c_count = p.W.shape[0]
    logits = np.zeros((batch, c_count))
    for bi in range(batch):
        adapted = []
        for ti in range(t_count):
            u = np.zeros(d)
            for di in range(d):
                acc = p.a[di]
                for ei in range(d):
                    acc += p.A[di, ei] * tokens[bi, ti, ei]
                u[di] = acc
            adapted.append(u)
        scores = [sum(u[di] * p.q[di] for di in range(d)) / math.sqrt(d)
                  for u in adapted]
        mx = max(scores)
        exps = [math.exp(s - mx) for s in scores]
        z = sum(exps)
        alpha = [e / z for e in exps]
        pooled = np.zeros(d)
        for ti in range(t_count):
            pooled += alpha[ti] * adapted[ti]
        pooled /= math.sqrt(float(pooled @ pooled))
        for ci in range(c_count):
            logits[bi, ci] = p.logit_scale * float(pooled @ p.W[ci]) + p.b[ci]
    return logits


def test_forward_matches_loop_reference(rng):
    p = random_params(rng)
    tokens = rng.normal(size=(5, 3, 4))
    cache = forward(p, tokens)
    np.testing.assert_allclose(cache.logits, loop_forward(p, tokens), atol=1e-9)


@given(st.integers(min_value=0, max_value=1 << 16))
@settings(max_examples=30, deadline=None)
def test_forward_invariants(seed):
    rng = np.random.default_rng(seed)
    p = random_params(rng, c=4, d=5)
    cache = forward(p, rng.normal(size=(6, 3, 5)))
    np.testing.assert_allclose(cache.attn.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(cache.attn >= 0)
    np.testing.assert_allclose(
        np.linalg.norm(cache.pooled_unit, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(cache.probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(cache.probs > 0)


def test_init_params_reproduces_cosine_scoring(rng):
    W = rng.normal(size=(4, 6))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    p = init_params(Head(W=W, b=np.zeros(4), init_provenance=[]))
    tokens = rng.normal(size=(7, 3, 6))
    cache = forward(p, tokens)
    # identity adapter + zero query -> uniform attention over raw tokens
    means = tokens.mean(axis=1)
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    np.testing.assert_allclose(cache.logits, 10.0 * means @ W.T, atol=1e-9)


def test_forward_rejects_bad_rank_and_dim(rng):
    p = random_params(rng)
    with pytest.raises(ShapeMismatch):
        forward(p, rng.normal(size=(5, 4)))
    with pytest.raises(ShapeMismatch):
        forward(p, rng.normal(size=(5, 3, 7)))
    with pytest.raises(ShapeMismatch):  # L rows are (B, D)
        forward_from(p, rng.normal(size=(5, 3, 4)), "L")
    with pytest.raises(ShapeMismatch):
        prefix(p, rng.normal(size=(5, 4)), "PL")
    with pytest.raises(ConfigError):
        prefix(p, rng.normal(size=(5, 3, 4)), "PLX")


@pytest.mark.parametrize("policy", ["L", "PL", "ALL"])
def test_prefix_rows_of_a_batch_are_the_batch_rows_bit_for_bit(policy):
    # caching a run's prefix rows and indexing batches relies on this
    rng = np.random.default_rng(5)
    p = random_params(rng, c=10, d=32)  # non-identity A, non-zero a and q
    tokens = rng.normal(size=(500, 4, 32))
    whole = prefix(p, tokens, policy)
    whole_unit = forward_from(p, whole, policy).pooled_unit
    for idx in (rng.integers(0, 500, size=32), np.arange(7), [499], []):
        rows = whole[np.asarray(idx, dtype=np.int64)]
        assert rows.tobytes() == prefix(p, tokens[idx], policy).tobytes()
        if len(idx):
            cache = forward_from(p, rows, policy)
            assert cache.pooled_unit.tobytes() == whole_unit[idx].tobytes()
            explicit = forward(p, tokens[idx]).logits
            if policy == "ALL":  # linear route vs explicit adapter: rounding
                np.testing.assert_allclose(cache.logits, explicit, rtol=0,
                                           atol=1e-12)
            else:
                assert cache.logits.tobytes() == explicit.tobytes()


def test_forward_zero_norm_pooled():
    p = random_params(np.random.default_rng(0), c=3, d=4)
    p.q[:] = 0.0  # uniform attention
    p.a[:] = 0.0
    p.A[:] = np.eye(4)
    v = np.array([1.0, 2.0, 3.0, 4.0])
    tokens = np.stack([np.stack([v, -v])])  # mean exactly zero
    with pytest.raises(ZeroNormPooled):
        forward(p, tokens)
    with pytest.raises(ZeroNormPooled):  # checked once, when L rows are built
        prefix(p, tokens, "L")


# --- losses -------------------------------------------------------------------

def test_uniform_model_ce_is_log_c(rng):
    p = random_params(rng, c=4, d=5)
    p.W[:] = 0.0
    p.b[:] = 0.0
    tokens = rng.normal(size=(8, 2, 5))
    labels = rng.integers(0, 4, size=8)
    cache = forward(p, tokens)
    total, parts = loss_total(cache, smoothed_targets(labels, 4, 0.0), p, None,
                              LossConfig(label_smoothing=0.0))
    assert abs(parts["ce"] - math.log(4)) < 1e-12
    assert total == parts["ce"]


def test_label_smoothing_ce_loop_oracle(rng):
    p = random_params(rng, c=3, d=4)
    tokens = rng.normal(size=(5, 2, 4))
    labels = rng.integers(0, 3, size=5)
    eps = 0.1
    cache = forward(p, tokens)
    _, parts = loss_total(cache, smoothed_targets(labels, 3, eps), p, None,
                          LossConfig(label_smoothing=eps))
    ref = 0.0
    for bi in range(5):
        z = cache.logits[bi]
        logp = z - (np.log(np.exp(z - z.max()).sum()) + z.max())
        for ci in range(3):
            target = eps / 3 + (1.0 - eps if ci == labels[bi] else 0.0)
            ref -= target * logp[ci]
    ref /= 5
    assert abs(parts["ce"] - ref) < 1e-9


def test_anchor_zero_identities(rng):
    p = random_params(rng)
    anchor = {n: p.group(n).copy() for n in ("W", "b")}
    cache = forward(p, rng.normal(size=(3, 2, 4)))
    _, parts = loss_total(cache, None, p, anchor, LossConfig(anchor_lambda=0.5))
    assert parts["anchor"] == 0.0
    _, parts = loss_total(cache, None, p, {"W": p.W - 1.0},
                          LossConfig(anchor_lambda=0.0))
    assert parts["anchor"] == 0.0


def test_anchor_term_quadratic(rng):
    p = random_params(rng)
    ref = {"W": p.W - 2.0}  # squared distance = 4 * numel
    cache = forward(p, rng.normal(size=(2, 2, 4)))
    _, parts = loss_total(cache, None, p, ref, LossConfig(anchor_lambda=0.25))
    assert abs(parts["anchor"] - 0.25 * 4.0 * p.W.size) < 1e-9


def test_distill_zero_when_teacher_equals_student(rng):
    p = random_params(rng)
    tokens = rng.normal(size=(4, 2, 4))
    cache = forward(p, tokens)
    cfg = LossConfig(distill_weight=1.0, distill_temperature=1.0)
    _, parts = loss_total(cache, None, p, None, cfg,
                          teacher_targets(cache.probs, 3, 1.0))
    assert parts["distill"] == 0.0
    cfg2 = LossConfig(distill_weight=1.0, distill_temperature=2.0)
    _, parts2 = loss_total(cache, None, p, None, cfg2,
                           teacher_targets(cache.probs, 3, 2.0))
    assert abs(parts2["distill"]) < 1e-12


def test_distill_kl_loop_oracle(rng):
    p = random_params(rng, c=3, d=4)
    tokens = rng.normal(size=(6, 2, 4))
    teacher = rng.dirichlet(np.ones(3), size=6)
    tau, w = 2.0, 0.7
    cache = forward(p, tokens)
    _, parts = loss_total(cache, None, p, None,
                          LossConfig(distill_weight=w, distill_temperature=tau),
                          teacher_targets(teacher, 3, tau))
    ref = 0.0
    for bi in range(6):
        tlog = np.log(teacher[bi]) / tau
        t_tau = np.exp(tlog - tlog.max())
        t_tau /= t_tau.sum()
        z = cache.logits[bi] / tau
        s_tau = np.exp(z - z.max())
        s_tau /= s_tau.sum()
        for ci in range(3):
            if t_tau[ci] > 0:
                ref += t_tau[ci] * (math.log(t_tau[ci]) - math.log(s_tau[ci]))
    assert abs(parts["distill"] - w * ref / 6) < 1e-8


def test_distill_handles_exact_zero_teacher_mass(rng):
    p = random_params(rng, c=3, d=4)
    tokens = rng.normal(size=(2, 2, 4))
    teacher = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    cache = forward(p, tokens)
    _, parts = loss_total(cache, None, p, None,
                          LossConfig(distill_weight=1.0),
                          teacher_targets(teacher, 3, 1.0))
    assert math.isfinite(parts["distill"])


def test_bad_teacher_rejected():
    for bad in (np.array([[0.7, 0.4, -0.1], [1, 0, 0]]),
                np.array([[0.7, 0.7, 0.1], [1, 0, 0]]), np.ones((2, 4)) / 4):
        with pytest.raises(BadTeacherDistribution):
            teacher_targets(bad, 3, 1.0)


def test_labels_out_of_range_rejected():
    with pytest.raises(DataError):
        smoothed_targets(np.array([0, 3]), 3, 0.1)
    with pytest.raises(DataError):
        smoothed_targets(np.array([-1, 0]), 3, 0.1)


def test_loss_rows_must_match_the_batch(rng):
    p = random_params(rng, c=3, d=4)
    cache = forward(p, rng.normal(size=(2, 2, 4)))
    with pytest.raises(ShapeMismatch):
        loss_total(cache, smoothed_targets(np.array([0, 1, 2]), 3, 0.1), p,
                   None, LossConfig())
    with pytest.raises(ShapeMismatch):
        loss_total(cache, None, p, None, LossConfig(distill_weight=1.0),
                   np.ones((2, 4)) / 4)


def test_loss_config_validation():
    with pytest.raises(ConfigError):
        LossConfig(label_smoothing=1.0)
    for bad in (-0.1, math.nan):
        with pytest.raises(ConfigError):
            LossConfig(anchor_lambda=bad)
        with pytest.raises(ConfigError):
            LossConfig(distill_weight=bad)
    with pytest.raises(ConfigError):
        LossConfig(distill_temperature=0.0)


# --- gradients ----------------------------------------------------------------

def target_rows(p, labels, cfg, teacher):
    """The smoothed target and tempered teacher rows (None for None)."""
    c = p.num_classes
    targets = None if labels is None else smoothed_targets(
        labels, c, cfg.label_smoothing)
    teacher_tau = None if teacher is None else teacher_targets(
        teacher, c, cfg.distill_temperature)
    return targets, teacher_tau


def token_backward(p, tokens, labels, anchor, cfg, policy, teacher=None):
    """backward on a token batch, through its prefix rows and targets."""
    targets, teacher_tau = target_rows(p, labels, cfg, teacher)
    return backward(p, prefix(p, tokens, policy), targets, anchor, cfg, policy,
                    teacher=teacher_tau)


def _flatten(arrs):
    return np.concatenate([a.ravel() for a in arrs])


def numeric_grad(p, tokens, labels, anchor, cfg, policy, teacher, h=1e-4):
    names = trainable_names(policy)
    targets, teacher_tau = target_rows(p, labels, cfg, teacher)

    def eval_loss():
        total, _ = loss_total(forward(p, tokens), targets, p, anchor, cfg,
                              teacher_tau)
        return total

    grads = []
    for name in names:
        arr = p.group(name)
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            keep = arr[ix]
            arr[ix] = keep + h
            up = eval_loss()
            arr[ix] = keep - h
            down = eval_loss()
            arr[ix] = keep
            g[ix] = (up - down) / (2 * h)
            it.iternext()
        grads.append(g)
    return _flatten(grads)


@pytest.mark.parametrize("policy", ["L", "PL", "ALL"])
def test_gradients_match_finite_differences(policy):
    rng = np.random.default_rng(17)
    p = random_params(rng, c=3, d=4)
    tokens = rng.normal(size=(5, 3, 4))
    labels = rng.integers(0, 3, size=5)
    teacher = rng.dirichlet(np.ones(3), size=5)
    anchor = {n: p.group(n) + rng.normal(size=p.group(n).shape) * 0.1
              for n in trainable_names(policy)}
    cfg = LossConfig(label_smoothing=0.1, anchor_lambda=0.2,
                     distill_weight=0.5, distill_temperature=2.0)

    analytic = token_backward(p, tokens, labels, anchor, cfg, policy,
                              teacher=teacher)
    an = _flatten([analytic[n] for n in trainable_names(policy)])
    fd = numeric_grad(p, tokens, labels, anchor, cfg, policy, teacher)
    rel = np.abs(an - fd) / np.maximum(1e-6, np.abs(an) + np.abs(fd))
    assert rel.max() < 1e-4


def explicit_all_backward(p, tokens, targets, anchor, cfg, teacher=None):
    """Reference ALL gradients through the explicit (B, T, D) adapter output."""
    cache = forward(p, tokens)  # cache.adapted holds A t_i + a
    batch = tokens.shape[0]
    g_logits = np.zeros_like(cache.probs)
    if targets is not None:
        g_logits += (cache.probs - targets) / batch
    if teacher is not None and cfg.distill_weight > 0.0:
        tau = cfg.distill_temperature
        z = cache.logits / tau
        student = np.exp(z - z.max(axis=1, keepdims=True))
        student /= student.sum(axis=1, keepdims=True)
        g_logits += cfg.distill_weight * (student - teacher) / (tau * batch)
    d_unit = p.logit_scale * (g_logits @ p.W)
    radial = (d_unit * cache.pooled_unit).sum(axis=1, keepdims=True)
    d_pool = (d_unit - radial * cache.pooled_unit) / cache.pool_norms[:, None]
    d_attn = np.einsum("btd,bd->bt", cache.adapted, d_pool)
    inner = (cache.attn * d_attn).sum(axis=1, keepdims=True)
    d_scores = cache.attn * (d_attn - inner)
    sqrt_d = math.sqrt(p.dim)
    d_adapted = cache.attn[:, :, None] * d_pool[:, None, :]
    d_adapted += d_scores[:, :, None] * (p.q[None, None, :] / sqrt_d)
    grads = {
        "A": np.einsum("btd,bte->de", d_adapted, tokens),
        "a": d_adapted.sum(axis=(0, 1)),
        "q": np.einsum("bt,btd->d", d_scores, cache.adapted) / sqrt_d,
        "W": p.logit_scale * (g_logits.T @ cache.pooled_unit),
        "b": g_logits.sum(axis=0),
    }
    for name in anchor or {}:
        grads[name] = grads[name] + 2.0 * cfg.anchor_lambda * (
            p.group(name) - anchor[name])
    return grads


@pytest.mark.parametrize("terms", ["ce", "anchor", "distill", "all"])
def test_all_gradients_match_explicit_adapter_reference(terms):
    rng = np.random.default_rng(23)
    p = random_params(rng, c=10, d=32)  # non-identity A, non-zero a and q
    tokens = rng.normal(size=(32, 4, 32))
    c = p.num_classes
    labels = rng.integers(0, c, size=32)
    teacher = rng.dirichlet(np.ones(c), size=32)
    cfg = LossConfig(label_smoothing=0.1,
                     anchor_lambda=0.2 if terms in ("anchor", "all") else 0.0,
                     distill_weight=0.5 if terms in ("distill", "all") else 0.0,
                     distill_temperature=2.0)
    targets = smoothed_targets(labels, c, cfg.label_smoothing)
    if terms == "distill":
        targets = None
    anchor = None
    if cfg.anchor_lambda:
        anchor = {n: p.group(n) + rng.normal(size=p.group(n).shape) * 0.1
                  for n in trainable_names("ALL")}
    teacher_tau = teacher_targets(teacher, c, cfg.distill_temperature)
    got = backward(p, prefix(p, tokens, "ALL"), targets, anchor, cfg, "ALL",
                   teacher=teacher_tau)
    ref = explicit_all_backward(p, tokens, targets, anchor, cfg, teacher_tau)
    assert tuple(got) == trainable_names("ALL")
    for name in got:
        scale = np.abs(ref[name]).max()
        assert scale > 0
        assert np.abs(got[name] - ref[name]).max() <= 1e-12 * scale, name


def test_gradients_without_labels(rng):
    # distillation-only batches drive the same backward path
    p = random_params(rng, c=3, d=4)
    tokens = rng.normal(size=(4, 2, 4))
    teacher = rng.dirichlet(np.ones(3), size=4)
    cfg = LossConfig(distill_weight=1.0, distill_temperature=2.0)
    analytic = token_backward(p, tokens, None, None, cfg, "ALL", teacher=teacher)
    an = _flatten([analytic[n] for n in trainable_names("ALL")])
    fd = numeric_grad(p, tokens, None, None, cfg, "ALL", teacher)
    rel = np.abs(an - fd) / np.maximum(1e-6, np.abs(an) + np.abs(fd))
    assert rel.max() < 1e-4


@pytest.mark.parametrize("policy,expected", [
    ("L", ("W", "b")), ("PL", ("q", "W", "b")), ("ALL", ("A", "a", "q", "W", "b")),
])
def test_gradient_dict_limited_to_policy(rng, policy, expected):
    p = random_params(rng)
    grads = token_backward(p, rng.normal(size=(3, 2, 4)),
                           np.zeros(3, dtype=int), None, LossConfig(), policy)
    assert tuple(grads) == expected


def test_unknown_policy_rejected():
    with pytest.raises(ConfigError):
        trainable_names("PLX")


def test_anchor_gradient_only_touches_anchored_groups(rng):
    p = random_params(rng)
    tokens = rng.normal(size=(3, 2, 4))
    labels = np.zeros(3, dtype=int)
    base = token_backward(p, tokens, labels, None, LossConfig(), "PL")
    anchored = token_backward(p, tokens, labels, {"W": p.W + 1.0},
                              LossConfig(anchor_lambda=0.5), "PL")
    np.testing.assert_allclose(
        anchored["W"] - base["W"], 2.0 * 0.5 * -np.ones_like(p.W), atol=1e-12)
    np.testing.assert_array_equal(anchored["b"], base["b"])
    np.testing.assert_array_equal(anchored["q"], base["q"])


def test_model_params_validation():
    with pytest.raises(ShapeMismatch):
        ModelParams(A=np.eye(3), a=np.zeros(4), q=np.zeros(3),
                    W=np.zeros((2, 3)), b=np.zeros(2))
    with pytest.raises(ShapeMismatch):
        ModelParams(A=np.eye(3), a=np.zeros(3), q=np.zeros(3),
                    W=np.zeros((2, 4)), b=np.zeros(2))
    for scale in (0.0, math.inf, math.nan):
        with pytest.raises(ConfigError):
            ModelParams(A=np.eye(3), a=np.zeros(3), q=np.zeros(3),
                        W=np.zeros((2, 3)), b=np.zeros(2), logit_scale=scale)


def test_params_copy_is_deep(rng):
    p = random_params(rng)
    q = p.copy()
    q.W[0, 0] += 1.0
    assert p.W[0, 0] != q.W[0, 0]


def test_trainable_returns_live_views(rng):
    p = random_params(rng)
    live = p.trainable("L")
    live["W"][0, 0] = 123.0
    assert p.W[0, 0] == 123.0
