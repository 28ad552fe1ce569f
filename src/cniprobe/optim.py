"""Adafactor with factored second moments, plus a cosine LR schedule.

Matrices store row/column mean-square accumulators (n + m values
instead of n*m); 1-D parameters keep a full second-moment vector.
Relative step sizing is disabled: the caller supplies the learning
rate, normally from ``cosine_lr``. Updates are RMS-clipped, carried by
beta1 momentum, and weight decay is decoupled (applied to the weights,
never folded into gradients).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeMismatch


@dataclass
class ScheduleConfig:
    base_lr: float
    total_steps: int
    warmup_steps: int = 0
    min_lr: float = 0.0

    def __post_init__(self):
        if not self.base_lr > 0:
            raise ConfigError("base_lr must be positive")
        if self.total_steps < 1:
            raise ConfigError("total_steps must be >= 1")
        if self.warmup_steps < 0 or self.min_lr < 0:
            raise ConfigError("warmup_steps and min_lr must be >= 0")
        if self.warmup_steps >= self.total_steps:
            raise ConfigError("warmup_steps must be < total_steps")


def cosine_lr(step: int, cfg: ScheduleConfig) -> float:
    """Linear warmup to base_lr, then cosine decay to min_lr."""
    if step < 0 or step > cfg.total_steps:
        raise ConfigError(f"step {step} outside [0, {cfg.total_steps}]")
    if step < cfg.warmup_steps:
        return cfg.base_lr * step / cfg.warmup_steps
    span = cfg.total_steps - cfg.warmup_steps
    frac = (step - cfg.warmup_steps) / span
    return cfg.min_lr + (cfg.base_lr - cfg.min_lr) * 0.5 * (
        1.0 + math.cos(math.pi * frac)
    )


@dataclass
class AdafactorConfig:
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.01
    eps1: float = 1e-30
    clip_threshold: float = 1.0


def _beta2_hat(step: int, beta2: float) -> float:
    """Decaying schedule 1 - t^-0.8, capped by the configured constant."""
    return min(beta2, 1.0 - math.pow(step, -0.8))


def _rms(x: np.ndarray) -> float:
    return math.sqrt(float(np.mean(x * x)))


@dataclass
class AdafactorState:
    """Second-moment and momentum accumulators, keyed by parameter name."""

    step: int = 0
    row: dict = field(default_factory=dict)   # matrices: row mean squares
    col: dict = field(default_factory=dict)   # matrices: column mean squares
    full: dict = field(default_factory=dict)  # vectors: full second moment
    mom: dict = field(default_factory=dict)   # first moment

    def _ensure(self, name: str, shape: tuple[int, ...]):
        if name in self.mom:
            return
        if len(shape) == 2:
            self.row[name] = np.zeros(shape[0])
            self.col[name] = np.zeros(shape[1])
        elif len(shape) == 1:
            self.full[name] = np.zeros(shape)
        else:
            raise ShapeMismatch(f"unsupported parameter rank {len(shape)}")
        self.mom[name] = np.zeros(shape)


def adafactor_step(
    state: AdafactorState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
    cfg: AdafactorConfig = AdafactorConfig(),
) -> None:
    """One optimizer step, mutating ``params`` arrays in place.

    Parameters without a gradient entry are left untouched — that is
    the freezing mechanism, so their bytes never change.
    """
    state.step += 1
    b2 = _beta2_hat(state.step, cfg.beta2)
    for name, grad in grads.items():
        if name not in params:
            raise ShapeMismatch(f"gradient for unknown parameter {name!r}")
        p = params[name]
        if grad.shape != p.shape:
            raise ShapeMismatch(
                f"gradient shape {grad.shape} != parameter shape {p.shape}"
            )
        state._ensure(name, p.shape)

        sq = grad * grad + cfg.eps1
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

        if cfg.clip_threshold > 0:
            update /= max(1.0, _rms(update) / cfg.clip_threshold)

        m = state.mom[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * update

        if cfg.weight_decay > 0:
            p *= 1.0 - lr * cfg.weight_decay
        p -= lr * m

