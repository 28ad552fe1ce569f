"""Adaptation pipeline: adapter -> attention pooler -> normalized linear head.

Per example with tokens t_1..t_T (each in R^D):

    u_i     = A t_i + a                      adapter
    alpha   = softmax(<u_i, q> / sqrt(D))    single-query attention pooling
    H       = sum_i alpha_i u_i              pooled embedding
    Hn      = H / ||H||                      unit-normalized
    logits  = logit_scale * W Hn + b
    Y       = softmax(logits)

The unit normalization before the head makes a text-initialized model
reproduce zero-shot cosine classification exactly at initialization.
All math runs in float64; gradients of the full training loss
(smoothed cross-entropy + anchored L2 + distillation KL) are closed
form, with frozen parameter groups receiving no gradient entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadTeacherDistribution,
    ConfigError,
    DataError,
    ShapeMismatch,
    ZeroNormPooled,
)
from .headinit import Head

POLICY_L = "L"
POLICY_PL = "PL"
POLICY_ALL = "ALL"

# parameter groups unlocked by each freezing policy
TRAINABLE = {
    POLICY_L: ("W", "b"),
    POLICY_PL: ("q", "W", "b"),
    POLICY_ALL: ("A", "a", "q", "W", "b"),
}

_POOL_EPS = 1e-12


def trainable_names(policy: str) -> tuple[str, ...]:
    if policy not in TRAINABLE:
        raise ConfigError(f"unknown freezing policy {policy!r}")
    return TRAINABLE[policy]


@dataclass
class ModelParams:
    """Trainable pipeline parameters plus the fixed logit scale."""

    A: np.ndarray  # (D, D) adapter weight
    a: np.ndarray  # (D,)   adapter bias
    q: np.ndarray  # (D,)   pooler query
    W: np.ndarray  # (C, D) head weight
    b: np.ndarray  # (C,)   head bias
    logit_scale: float = 10.0

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64)
        self.q = np.asarray(self.q, dtype=np.float64)
        self.W = np.asarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        d = self.A.shape[0]
        c = self.W.shape[0]
        if self.A.shape != (d, d) or self.a.shape != (d,) or self.q.shape != (d,):
            raise ShapeMismatch("adapter/pooler shapes inconsistent")
        if self.W.shape != (c, d) or self.b.shape != (c,):
            raise ShapeMismatch("head shapes inconsistent with (C, D)")
        if not self.logit_scale > 0:
            raise ConfigError("logit_scale must be positive")

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def num_classes(self) -> int:
        return self.W.shape[0]

    def copy(self) -> "ModelParams":
        return ModelParams(
            A=self.A.copy(), a=self.a.copy(), q=self.q.copy(),
            W=self.W.copy(), b=self.b.copy(), logit_scale=self.logit_scale,
        )

    def group(self, name: str) -> np.ndarray:
        return getattr(self, name)

    def trainable(self, policy: str) -> dict[str, np.ndarray]:
        """The live arrays unlocked by ``policy`` (not copies)."""
        return {name: getattr(self, name) for name in trainable_names(policy)}


def init_params(head: Head, logit_scale: float = 10.0) -> ModelParams:
    """Identity adapter, zero query and the given head.

    All freezing policies therefore start from the same zero-shot
    function: uniform attention over tokens and cosine scoring against
    the head rows.
    """
    dim = head.W.shape[1]
    return ModelParams(
        A=np.eye(dim, dtype=np.float64),
        a=np.zeros(dim, dtype=np.float64),
        q=np.zeros(dim, dtype=np.float64),
        W=np.asarray(head.W, dtype=np.float64).copy(),
        b=np.asarray(head.b, dtype=np.float64).copy(),
        logit_scale=logit_scale,
    )


@dataclass
class LossConfig:
    """Weights of the loss terms."""

    label_smoothing: float = 0.1
    anchor_lambda: float = 0.0
    distill_weight: float = 0.0
    distill_temperature: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError("label_smoothing must lie in [0, 1)")
        if self.anchor_lambda < 0:
            raise ConfigError("anchor_lambda must be >= 0")
        if self.distill_weight < 0:
            raise ConfigError("distill_weight must be >= 0")
        if not self.distill_temperature > 0:
            raise ConfigError("distill_temperature must be positive")


@dataclass
class ForwardCache:
    """Intermediate activations of one forward pass."""

    adapted: np.ndarray      # (B, T, D) adapter outputs
    attn: np.ndarray         # (B, T) attention weights, rows sum to 1
    pooled_unit: np.ndarray  # (B, D) H / ||H||
    pool_norms: np.ndarray   # (B,)
    logits: np.ndarray       # (B, C)
    probs: np.ndarray        # (B, C)


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def forward(p: ModelParams, tokens: np.ndarray) -> ForwardCache:
    """Run the pipeline on a (B, T, D) token batch."""
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 3 or tokens.shape[2] != p.dim:
        raise ShapeMismatch(
            f"tokens shape {tokens.shape} incompatible with D={p.dim}"
        )
    adapted = tokens @ p.A.T + p.a
    scores = (adapted @ p.q) / math.sqrt(p.dim)
    attn = _softmax_rows(scores)
    pooled = np.einsum("bt,btd->bd", attn, adapted)
    norms = np.linalg.norm(pooled, axis=1)
    if np.any(norms < _POOL_EPS):
        raise ZeroNormPooled("pooled embedding has zero norm")
    pooled_unit = pooled / norms[:, None]
    logits = p.logit_scale * (pooled_unit @ p.W.T) + p.b
    probs = _softmax_rows(logits)
    return ForwardCache(
        adapted=adapted, attn=attn, pooled_unit=pooled_unit,
        pool_norms=norms, logits=logits, probs=probs,
    )


def _smoothed_targets(labels: np.ndarray, num_classes: int,
                      eps: float) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise DataError(f"labels must lie in [0, {num_classes})")
    targets = np.full((labels.shape[0], num_classes), eps / num_classes)
    targets[np.arange(labels.shape[0]), labels] += 1.0 - eps
    return targets


def _temperature_scaled(probs: np.ndarray, tau: float) -> np.ndarray:
    """softmax(log p / tau); equals p when tau == 1."""
    if tau == 1.0:
        return probs
    with np.errstate(divide="ignore"):
        logp = np.where(probs > 0.0, np.log(np.maximum(probs, 1e-300)), -np.inf)
    return _softmax_rows(logp / tau)


def _check_teacher(teacher_probs: np.ndarray, num_classes: int) -> np.ndarray:
    teacher_probs = np.asarray(teacher_probs, dtype=np.float64)
    if teacher_probs.ndim != 2 or teacher_probs.shape[1] != num_classes:
        raise BadTeacherDistribution(
            f"teacher probabilities shape {teacher_probs.shape} invalid"
        )
    if np.any(teacher_probs < -1e-12):
        raise BadTeacherDistribution("teacher probabilities must be >= 0")
    if np.any(np.abs(teacher_probs.sum(axis=1) - 1.0) > 1e-6):
        raise BadTeacherDistribution("teacher probability rows must sum to 1")
    return teacher_probs


def _kl_rows(teacher_tau: np.ndarray, student_probs_tau: np.ndarray) -> np.ndarray:
    """KL(teacher || student) per row; 0 * log 0 treated as 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log(teacher_tau) - np.log(student_probs_tau)
        terms = np.where(teacher_tau > 0.0, teacher_tau * ratio, 0.0)
    return terms.sum(axis=1)


def loss_total(
    cache: ForwardCache,
    labels: np.ndarray | None,
    p: ModelParams,
    anchor: dict[str, np.ndarray] | None,
    cfg: LossConfig,
    teacher_probs: np.ndarray | None = None,
) -> tuple[float, dict[str, float]]:
    """Total loss and per-term breakdown for one batch.

    Terms: label-smoothed cross-entropy (skipped when labels is None),
    anchored L2 over the parameter groups present in ``anchor``, and
    temperature-matched KL(teacher || student) averaged over the batch.
    """
    num_classes = p.num_classes
    ce = 0.0
    if labels is not None:
        targets = _smoothed_targets(labels, num_classes, cfg.label_smoothing)
        logp = _log_softmax_rows(cache.logits)
        ce = float(-(targets * logp).sum(axis=1).mean())

    anchor_term = 0.0
    if anchor is not None and cfg.anchor_lambda > 0.0:
        sq = 0.0
        for name, ref in anchor.items():
            diff = p.group(name) - ref
            sq += float((diff * diff).sum())
        anchor_term = cfg.anchor_lambda * sq

    distill = 0.0
    if teacher_probs is not None and cfg.distill_weight > 0.0:
        teacher_probs = _check_teacher(teacher_probs, num_classes)
        tau = cfg.distill_temperature
        teacher_tau = _temperature_scaled(teacher_probs, tau)
        student_tau = _softmax_rows(cache.logits / tau) if tau != 1.0 else cache.probs
        distill = cfg.distill_weight * float(
            _kl_rows(teacher_tau, student_tau).mean()
        )

    total = ce + anchor_term + distill
    return total, {"ce": ce, "anchor": anchor_term, "distill": distill}


def backward(
    p: ModelParams,
    tokens: np.ndarray,
    labels: np.ndarray | None,
    anchor: dict[str, np.ndarray] | None,
    cfg: LossConfig,
    policy: str,
    teacher_probs: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Exact gradients of loss_total w.r.t. the policy's trainable params.

    The returned dict contains entries only for unlocked parameter
    groups.
    """
    names = trainable_names(policy)
    cache = forward(p, tokens)
    tokens = np.asarray(tokens, dtype=np.float64)
    batch = tokens.shape[0]
    num_classes = p.num_classes

    # d(loss)/d(logits), all terms combined
    g_logits = np.zeros((batch, num_classes))
    if labels is not None:
        targets = _smoothed_targets(labels, num_classes, cfg.label_smoothing)
        g_logits += (cache.probs - targets) / batch
    if teacher_probs is not None and cfg.distill_weight > 0.0:
        teacher_probs = _check_teacher(teacher_probs, num_classes)
        tau = cfg.distill_temperature
        teacher_tau = _temperature_scaled(teacher_probs, tau)
        student_tau = _softmax_rows(cache.logits / tau) if tau != 1.0 else cache.probs
        g_logits += cfg.distill_weight * (student_tau - teacher_tau) / (tau * batch)

    grads: dict[str, np.ndarray] = {}
    grads["b"] = g_logits.sum(axis=0)
    grads["W"] = p.logit_scale * (g_logits.T @ cache.pooled_unit)

    if policy != POLICY_L:
        # back through the normalization and the pooler
        d_unit = p.logit_scale * (g_logits @ p.W)  # (B, D)
        radial = (d_unit * cache.pooled_unit).sum(axis=1, keepdims=True)
        d_pool = (d_unit - radial * cache.pooled_unit) / cache.pool_norms[:, None]
        d_attn = np.einsum("btd,bd->bt", cache.adapted, d_pool)
        inner = (cache.attn * d_attn).sum(axis=1, keepdims=True)
        d_scores = cache.attn * (d_attn - inner)
        sqrt_d = math.sqrt(p.dim)
        grads["q"] = np.einsum("bt,btd->d", d_scores, cache.adapted) / sqrt_d

        if policy == POLICY_ALL:
            d_adapted = cache.attn[:, :, None] * d_pool[:, None, :]
            d_adapted += d_scores[:, :, None] * (p.q[None, None, :] / sqrt_d)
            grads["A"] = np.einsum("btd,bte->de", d_adapted, tokens)
            grads["a"] = d_adapted.sum(axis=(0, 1))

    if anchor is not None and cfg.anchor_lambda > 0.0:
        for name in anchor:
            if name in grads:
                grads[name] = grads[name] + 2.0 * cfg.anchor_lambda * (
                    p.group(name) - anchor[name]
                )

    return {name: grads[name] for name in names}
