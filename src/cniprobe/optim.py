"""Adafactor with factored second moments, plus a cosine LR schedule.

Matrices store row/column mean-square accumulators (n + m values
instead of n*m); 1-D parameters keep a full second-moment vector.
Relative step sizing is disabled: the caller supplies the learning
rate, normally from ``cosine_lr``. Updates are RMS-clipped at
``CLIP_THRESHOLD``, carried by ``BETA1`` momentum, and weight decay
(``WEIGHT_DECAY``) is decoupled: applied to the weights, never folded
into gradients. The second-moment decay is ``1 - t^-0.8`` capped at
``BETA2``, and ``EPS1`` is added to every squared gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeMismatch

BETA1 = 0.9
BETA2 = 0.999
WEIGHT_DECAY = 0.01
EPS1 = 1e-30
CLIP_THRESHOLD = 1.0


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Cosine decay from base_lr at step 0 to 0 at ``total_steps``."""
    if step < 0 or step > total_steps:
        raise ConfigError(f"step {step} outside [0, {total_steps}]")
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * (step / total_steps)))


@dataclass
class AdafactorState:
    """Second-moment and momentum accumulators, keyed by parameter name."""

    step: int = 0
    row: dict = field(default_factory=dict)   # matrices: row mean squares
    col: dict = field(default_factory=dict)   # matrices: column mean squares
    full: dict = field(default_factory=dict)  # vectors: full second moment
    mom: dict = field(default_factory=dict)   # first moment

    def _ensure(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        m = self.mom.get(name)
        if m is not None:
            return m
        if len(shape) == 2:
            self.row[name] = np.zeros(shape[0])
            self.col[name] = np.zeros(shape[1])
        elif len(shape) == 1:
            self.full[name] = np.zeros(shape)
        else:
            raise ShapeMismatch(f"unsupported parameter rank {len(shape)}")
        m = self.mom[name] = np.zeros(shape)
        return m


def adafactor_step(
    state: AdafactorState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
) -> None:
    """One optimizer step, mutating ``params`` arrays in place.

    Parameters without a gradient entry are left untouched — that is
    the freezing mechanism, so their bytes never change. Means are
    ``sum / n``, as numpy computes ``mean``, to skip its call overhead.
    """
    state.step += 1
    b2 = min(BETA2, 1.0 - math.pow(state.step, -0.8))  # 1 - t^-0.8, capped
    new2, new1 = 1.0 - b2, 1.0 - BETA1
    decay = 1.0 - lr * WEIGHT_DECAY
    for name, grad in grads.items():
        p = params.get(name)
        if p is None:
            raise ShapeMismatch(f"gradient for unknown parameter {name!r}")
        if grad.shape != p.shape:
            raise ShapeMismatch(
                f"gradient shape {grad.shape} != parameter shape {p.shape}"
            )
        m = state._ensure(name, p.shape)

        sq = grad * grad + EPS1
        if p.ndim == 2:
            r, c = state.row[name], state.col[name]
            rows, cols = sq.shape
            r *= b2
            r += new2 * (sq.sum(axis=1) / cols)
            c *= b2
            c += new2 * (sq.sum(axis=0) / rows)
            vhat = (r / (r.sum() / rows))[:, None] * c
        else:
            v = state.full[name]
            v *= b2
            v += new2 * sq
            vhat = v
        update = grad / np.sqrt(vhat)

        rms = math.sqrt(float((update * update).sum()) / update.size)
        if rms > CLIP_THRESHOLD:  # else max(1, rms / clip) is 1
            update /= rms / CLIP_THRESHOLD

        m *= BETA1
        m += new1 * update

        p *= decay
        p -= lr * m
