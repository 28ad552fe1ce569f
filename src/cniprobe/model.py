"""Adaptation pipeline: adapter -> attention pooler -> normalized linear head.

Per example with tokens t_1..t_T (each in R^D):

    u_i     = A t_i + a                      adapter
    alpha   = softmax(<u_i, q> / sqrt(D))    single-query attention pooling
    H       = sum_i alpha_i u_i              pooled embedding
    Hn      = H / ||H||                      unit-normalized
    logits  = LOGIT_SCALE * W Hn + b         fixed scale, LOGIT_SCALE = 10
    Y       = softmax(logits)

The unit normalization before the head makes a text-initialized model
reproduce zero-shot cosine classification exactly at initialization.
All math runs in float64; gradients of the full training loss
(smoothed cross-entropy + anchored L2 + distillation KL) are closed
form, with frozen parameter groups receiving no gradient entry.
``backward`` starts from a policy's ``prefix`` rows, the output of
its frozen stages, which a training run computes once per set.
The adapter is affine, so ALL never builds its (B, T, D) output: alpha
is the softmax of <t_i, A^T q> / sqrt(D) (the shift <a, q> cancels) and
H = A tbar + a with tbar = sum_i alpha_i t_i, each a stacked matmul of
one product per example, so an example's row is the same in any batch.
``forward`` runs the adapter explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericalError

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
LOGIT_SCALE = 10.0  # the fixed logit scale


def trainable_names(policy: str) -> tuple[str, ...]:
    if policy not in TRAINABLE:
        raise ConfigError(f"unknown freezing policy {policy!r}")
    return TRAINABLE[policy]


class ModelParams:
    """Trainable parameters: A (D, D), a (D,), q (D,), W (C, D), b (C,),
    views in that order of one float64 buffer ``flat`` that construction
    copies them into. So each policy's trainable groups are a suffix of
    ``flat``. Write into the groups; rebinding one detaches it."""

    def __init__(self, A, a, q, W, b):
        groups = [np.asarray(g, dtype=np.float64) for g in (A, a, q, W, b)]
        A, a, q, W, b = groups
        if A.ndim != 2 or W.ndim != 2:
            raise DataError("adapter and head weights must be matrices")
        d, c = A.shape[0], W.shape[0]
        if A.shape != (d, d) or a.shape != (d,) or q.shape != (d,):
            raise DataError("adapter/pooler shapes inconsistent")
        if W.shape != (c, d) or b.shape != (c,):
            raise DataError("head shapes inconsistent with (C, D)")
        self.flat = np.concatenate([g.reshape(-1) for g in groups])
        views = np.split(self.flat, np.cumsum([g.size for g in groups[:-1]]))
        self.A, self.a, self.q, self.W, self.b = (
            v.reshape(g.shape) for v, g in zip(views, groups))

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def num_classes(self) -> int:
        return self.W.shape[0]

    def copy(self) -> "ModelParams":
        return ModelParams(*(self.group(name) for name in TRAINABLE[POLICY_ALL]))

    def group(self, name: str) -> np.ndarray:
        return getattr(self, name)


def init_params(W: np.ndarray) -> ModelParams:
    """Identity adapter, zero ``a``, ``q`` and ``b``, and the (C, D) head
    weight `W`, as ``headinit.init_head`` builds it.

    All freezing policies therefore start from the same zero-shot
    function: uniform attention over tokens and cosine scoring against
    the head rows.
    """
    if np.ndim(W) != 2:
        raise DataError(f"head weight of shape {np.shape(W)} is not (C, D)")
    c, dim = np.shape(W)
    return ModelParams(A=np.eye(dim), a=np.zeros(dim), q=np.zeros(dim),
                       W=W, b=np.zeros(c))


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
        if not self.anchor_lambda >= 0:
            raise ConfigError("anchor_lambda must be >= 0")
        if not self.distill_weight >= 0:
            raise ConfigError("distill_weight must be >= 0")
        if not self.distill_temperature > 0:
            raise ConfigError("distill_temperature must be positive")


@dataclass
class ForwardCache:
    """Intermediate activations of one forward pass (None: not run);
    ``probs``, the (B, C) softmax of the logits, is computed on access."""

    tbar: np.ndarray | None        # (B, D) sum_i alpha_i t_i (ALL only)
    attn: np.ndarray | None        # (B, T) attention weights, rows sum to 1
    pooled_unit: np.ndarray        # (B, D) H / ||H||
    pool_norms: np.ndarray | None  # (B,)
    logits: np.ndarray             # (B, C)
    probs = property(lambda self: _softmax_rows(self.logits))


def _row_max(x: np.ndarray) -> np.ndarray:
    """Row maxima as a (B, 1) column, in fewer calls down the contiguous
    transpose; a tie of +0 and -0 may differ in sign, as no softmax sees."""
    return np.maximum.reduce(np.ascontiguousarray(x.T), axis=0)[:, None]


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - _row_max(x))
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _log_softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - _row_max(x)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def _unit(pooled: np.ndarray):
    """Pooled rows made unit in place, and their norms; a zero norm raises."""
    norms = np.sqrt(np.add.reduce(pooled * pooled, axis=1))  # np.linalg.norm
    if np.minimum.reduce(norms, initial=np.inf) < _POOL_EPS:
        raise NumericalError("pooled embedding has zero norm")
    pooled /= norms[:, None]
    return pooled, norms


def _pool(p: ModelParams, adapted: np.ndarray):
    """Attention weights, unit pooled rows and the pooled norms."""
    attn = _softmax_rows((adapted @ p.q) / math.sqrt(p.dim))
    return (attn, *_unit(np.einsum("bt,btd->bd", attn, adapted)))


def _as_rows(p: ModelParams, rows: np.ndarray, policy: str) -> np.ndarray:
    """``rows`` as float64, checked against the policy's prefix shape."""
    trainable_names(policy)
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != (2 if policy == POLICY_L else 3) or rows.shape[-1] != p.dim:
        raise DataError(f"{policy} rows of shape {rows.shape} "
                        f"incompatible with D={p.dim}")
    return rows


def prefix(p: ModelParams, tokens: np.ndarray, policy: str) -> np.ndarray:
    """The rows the trainable part of ``policy`` starts from: the tokens
    (ALL), the adapter outputs (PL) or the unit pooled rows (L). Each
    example's rows are computed on their own, so a batch's rows equal
    the batch's rows of the whole set bit for bit."""
    trainable_names(policy)
    tokens = _as_rows(p, tokens, POLICY_ALL)
    if policy == POLICY_ALL:
        return tokens
    adapted = tokens @ p.A.T + p.a
    return adapted if policy == POLICY_PL else _pool(p, adapted)[1]


def forward_from(p: ModelParams, rows: np.ndarray, policy: str) -> ForwardCache:
    """The pipeline from ``prefix(p, tokens, policy)`` rows on."""
    rows = _as_rows(p, rows, policy)
    tbar = attn = norms = None
    if policy == POLICY_L:
        pooled_unit = rows
    elif policy == POLICY_PL:
        attn, pooled_unit, norms = _pool(p, rows)
    else:  # an einsum and stacked matmuls: no example's sums depend on
        # the batch's row count, as a (B, D) @ (D, D) product's may
        scores = np.einsum("btd,d->bt", rows, (p.q @ p.A) / math.sqrt(p.dim))
        attn = _softmax_rows(scores)  # <a, q> is the same for every token
        tbar = np.matmul(attn[:, None, :], rows)[:, 0]
        pooled = np.matmul(p.A, tbar[:, :, None])[:, :, 0]
        pooled += p.a
        pooled_unit, norms = _unit(pooled)
    logits = LOGIT_SCALE * (pooled_unit @ p.W.T) + p.b
    return ForwardCache(tbar, attn, pooled_unit, norms, logits)


def forward(p: ModelParams, tokens: np.ndarray) -> ForwardCache:
    """Run the pipeline on a (B, T, D) token batch, adapter explicit."""
    return forward_from(p, prefix(p, tokens, POLICY_PL), POLICY_PL)


def smoothed_targets(labels: np.ndarray, num_classes: int,
                     eps: float) -> np.ndarray:
    """Label-smoothed target rows; labels outside [0, C) raise DataError."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise DataError(f"labels must lie in [0, {num_classes})")
    targets = np.full((labels.shape[0], num_classes), eps / num_classes)
    targets[np.arange(labels.shape[0]), labels] += 1.0 - eps
    return targets


def teacher_targets(teacher_probs: np.ndarray, num_classes: int,
                    tau: float) -> np.ndarray:
    """Checked teacher rows at temperature tau: softmax(log p / tau)."""
    teacher_probs = np.asarray(teacher_probs, dtype=np.float64)
    if teacher_probs.ndim != 2 or teacher_probs.shape[1] != num_classes:
        raise DataError(f"teacher probabilities shape {teacher_probs.shape} invalid")
    if np.any(teacher_probs < -1e-12):
        raise DataError("teacher probabilities must be >= 0")
    if np.any(np.abs(teacher_probs.sum(axis=1) - 1.0) > 1e-6):
        raise DataError("teacher probability rows must sum to 1")
    if tau == 1.0:
        return teacher_probs
    with np.errstate(divide="ignore"):
        logp = np.where(teacher_probs > 0.0,
                        np.log(np.maximum(teacher_probs, 1e-300)), -np.inf)
    return _softmax_rows(logp / tau)


def _kl_rows(teacher_tau: np.ndarray, student_probs_tau: np.ndarray) -> np.ndarray:
    """KL(teacher || student) per row; 0 * log 0 treated as 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log(teacher_tau) - np.log(student_probs_tau)
        terms = np.where(teacher_tau > 0.0, teacher_tau * ratio, 0.0)
    return terms.sum(axis=1)


def _check_rows(cache: ForwardCache, *rows: np.ndarray | None) -> None:
    if any(t is not None and t.shape != cache.logits.shape for t in rows):
        raise DataError("target rows must match the batch's (B, C) logits")


def loss_total(
    cache: ForwardCache,
    targets: np.ndarray | None,
    p: ModelParams,
    anchor: dict[str, np.ndarray] | None,
    cfg: LossConfig,
    teacher: np.ndarray | None = None,
) -> tuple[float, dict[str, float]]:
    """Total loss and per-term breakdown for one batch.

    ``targets`` and ``teacher`` are the rows ``backward`` takes. Terms:
    label-smoothed cross-entropy (skipped when targets is None),
    anchored L2 over the parameter groups present in ``anchor``, and
    temperature-matched KL(teacher || student) averaged over the batch.
    """
    _check_rows(cache, targets, teacher)
    ce = 0.0
    if targets is not None:
        ce = float(-(targets * _log_softmax_rows(cache.logits)).sum(axis=1).mean())

    anchor_term = 0.0
    if anchor is not None and cfg.anchor_lambda > 0.0:
        sq = 0.0
        for name, ref in anchor.items():
            diff = p.group(name) - ref
            sq += float((diff * diff).sum())
        anchor_term = cfg.anchor_lambda * sq

    distill = 0.0
    if teacher is not None and cfg.distill_weight > 0.0:
        student_tau = _softmax_rows(cache.logits / cfg.distill_temperature)
        distill = cfg.distill_weight * float(_kl_rows(teacher, student_tau).mean())

    total = ce + anchor_term + distill
    return total, {"ce": ce, "anchor": anchor_term, "distill": distill}


def backward(
    p: ModelParams,
    rows: np.ndarray,
    targets: np.ndarray | None,
    anchor: dict[str, np.ndarray] | None,
    cfg: LossConfig,
    policy: str,
    teacher: np.ndarray | None = None,
    out: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Exact gradients of loss_total w.r.t. the policy's trainable params.

    ``rows`` are the batch's ``prefix(p, tokens, policy)``, ``targets``
    its ``smoothed_targets`` (None for a batch without labels) and
    ``teacher`` its ``teacher_targets``. They are written into and returned
    in ``out``, the policy's unfrozen groups in order (a new dict if None;
    in training ``AdafactorState.gradients``).
    """
    names = trainable_names(policy)
    out = {n: np.empty(p.group(n).shape) for n in names} if out is None else out
    if tuple(out) != names:
        raise DataError(f"gradient buffers {tuple(out)} are not {policy}'s {names}")
    rows = np.asarray(rows, dtype=np.float64)
    cache = forward_from(p, rows, policy)
    batch, num_classes = cache.logits.shape
    _check_rows(cache, targets, teacher)

    # d(loss)/d(logits), all terms combined
    g_logits = (np.zeros((batch, num_classes)) if targets is None
                else (cache.probs - targets) / batch)
    if teacher is not None and cfg.distill_weight > 0.0:
        tau = cfg.distill_temperature
        student_tau = _softmax_rows(cache.logits / tau)
        g_logits += cfg.distill_weight * (student_tau - teacher) / (tau * batch)

    np.add.reduce(g_logits, axis=0, out=out["b"])
    np.matmul(g_logits.T, cache.pooled_unit, out=out["W"])
    out["W"] *= LOGIT_SCALE

    if policy != POLICY_L:
        # back through the normalization and the pooler
        d_unit = LOGIT_SCALE * (g_logits @ p.W)  # (B, D)
        radial = np.add.reduce(d_unit * cache.pooled_unit, axis=1, keepdims=True)
        d_pool = (d_unit - radial * cache.pooled_unit) / cache.pool_norms[:, None]
        if policy == POLICY_PL:  # rows are the u_i
            d_attn = np.einsum("btd,bd->bt", rows, d_pool)
        else:  # rows are the t_i; <a, d_pool> cancels in the softmax
            d_attn = np.matmul(rows, (d_pool @ p.A)[:, :, None])[:, :, 0]
        inner = np.add.reduce(cache.attn * d_attn, axis=1, keepdims=True)
        d_scores = cache.attn * (d_attn - inner)
        if policy == POLICY_PL:
            np.divide(np.einsum("bt,btd->d", d_scores, rows), math.sqrt(p.dim),
                      out=out["q"])
        else:  # rows of d_scores sum to 0: sum_i d_score_i u_i / sqrt(D) = A s
            s = (d_scores.reshape(-1) @ rows.reshape(-1, p.dim)) / math.sqrt(p.dim)
            np.matmul(p.A, s, out=out["q"])
            np.matmul(d_pool.T, cache.tbar, out=out["A"])
            out["A"] += p.q[:, None] * s
            np.add.reduce(d_pool, axis=0, out=out["a"])

    if anchor is not None and cfg.anchor_lambda > 0.0:
        for name in out.keys() & anchor:  # each group on its own: any order
            out[name] += 2.0 * cfg.anchor_lambda * (p.group(name) - anchor[name])

    return out
