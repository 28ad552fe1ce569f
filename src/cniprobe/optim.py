"""Adafactor with factored second moments, plus a cosine LR schedule.

Matrices store row/column mean-square accumulators (n + m values
instead of n*m); 1-D parameters keep a full second-moment vector.
Relative step sizing is disabled: the caller supplies the learning
rate, normally from ``cosine_lr``. Updates are RMS-clipped at
``CLIP_THRESHOLD``, carried by ``BETA1`` momentum, and weight decay
(``WEIGHT_DECAY``) is decoupled: applied to the weights, never folded
into gradients. The second-moment decay is ``1 - t^-0.8`` capped at
``BETA2``, and ``EPS1`` is added to every squared gradient.

The state owns the gradient buffer, which ``backward`` writes through
its ``gradients`` views; other gradients are checked and copied in. A
step makes one numpy call per elementwise operation over the trainable
suffix of ``ModelParams.flat`` and over the accumulators, and keeps the
order of every sum of a group-by-group step, so the bytes are the same.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DataError
from .model import TRAINABLE, ModelParams

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


class AdafactorState:
    """Buffers over the trainable suffix: the gradients' ``update``, ``mom``,
    ``vhat`` (a vector's span is its second moment, a matrix's is rebuilt
    from its ``factors``), scratch and the matrices' row and column mean
    squares ``acc``: ``moments`` is ``vhat`` then ``acc``, ``fresh`` ``sq`` then ``means``."""

    def __init__(self):
        self.step = 0
        self.grads = None  # the views of update, once sized

    def gradients(self, params: ModelParams, names: tuple[str, ...]) -> dict:
        """The views of ``update`` that the groups ``names`` are written into;
        the first call sizes the state for them."""
        if self.grads is not None:
            if tuple(self.grads) != names:
                raise DataError(f"gradients {names} do not fit {self.layout}")
            return self.grads
        if names not in TRAINABLE.values():
            raise DataError(f"gradients {names} are not a policy's groups")
        groups = [params.group(n) for n in names]
        self.layout = [(n, g.shape) for n, g in zip(names, groups)]  # groups stepped
        ends = np.cumsum([g.size for g in groups]).tolist()
        spans = [slice(end - g.size, end) for g, end in zip(groups, ends)]
        self.update, self.sq_update, self.mom = np.zeros((3, ends[-1]))
        self.grads = {n: self.update[s].reshape(sh) for (n, sh), s in zip(self.layout, spans)}
        self.clip = [(self.update[s], self.sq_update[s]) for s in spans]
        mats = [(n, g.shape, s) for n, g, s in zip(names, groups, spans) if g.ndim == 2]
        cuts = np.cumsum([k for _, sh, _ in mats for k in sh])
        self.fresh, self.moments = np.zeros((2, ends[-1] + cuts[-1]))
        (self.sq, self.means), (self.vhat, self.acc) = (
            np.split(b, [ends[-1]]) for b in (self.fresh, self.moments))
        # n row means of an (n, m) matrix divide by m, its m column means by n
        self.counts = np.concatenate([np.repeat(sh[::-1], sh) for _, sh, _ in mats])
        acc, means = (iter(np.split(b, cuts[:-1])) for b in (self.acc, self.means))
        self.factors = {  # name -> rows and columns of acc, of means; spans of
            # sq, vhat; the rows as a column, and an (n, 1) scratch
            n: (r := next(acc), next(acc), next(means), next(means),
                self.sq[s].reshape(sh), self.vhat[s].reshape(sh),
                r[:, None], np.zeros((sh[0], 1))) for n, sh, s in mats}
        return self.grads


def adafactor_step(state: AdafactorState, params: ModelParams,
                   grads: dict[str, np.ndarray], lr: float) -> None:
    """One optimizer step, mutating ``params.flat`` in place.

    ``grads`` holds one policy's groups in buffer order, as ``backward``
    returns them; the others are never touched, which is how a policy
    freezes them. The state's own ``gradients`` are read where they lie;
    another mapping is checked and copied in. The row and column sums
    and the RMS clip run group by group, as ``np.add.reduceat`` would
    move their bits. A mean is ``sum / n``."""
    if grads is not state.grads:
        layout = [(n, g.shape) for n, g in grads.items()]
        state.gradients(params, tuple(grads))
        if layout != state.layout:
            raise DataError(f"gradients {layout} do not fit {state.layout}")
        np.concatenate([g.reshape(-1) for g in grads.values()], out=state.update)
    state.step += 1
    b2 = min(BETA2, 1.0 - math.pow(state.step, -0.8))  # 1 - t^-0.8, capped
    new2, new1 = 1.0 - b2, 1.0 - BETA1

    update, sq = state.update, state.sq
    np.multiply(update, update, out=sq)
    sq += EPS1
    for _, _, r_mean, c_mean, sq_m, *_ in state.factors.values():
        np.add.reduce(sq_m, axis=1, out=r_mean)
        np.add.reduce(sq_m, axis=0, out=c_mean)
    state.means /= state.counts
    state.fresh *= new2  # sq and means
    state.moments *= b2  # vhat and acc
    state.moments += state.fresh
    for r, c, _, _, _, vhat_m, r_col, scratch in state.factors.values():
        np.divide(r_col, np.add.reduce(r) / r.size, out=scratch)
        np.multiply(scratch, c, out=vhat_m)
    np.sqrt(state.vhat, out=sq)
    update /= sq

    np.multiply(update, update, out=state.sq_update)
    for u, sq_u in state.clip:
        rms = math.sqrt(float(np.add.reduce(sq_u)) / u.size)
        if rms > CLIP_THRESHOLD:  # else max(1, rms / clip) is 1
            u /= rms / CLIP_THRESHOLD

    m = state.mom
    m *= BETA1
    update *= new1  # spent from here on: scratch
    m += update
    p = params.flat[params.flat.size - m.size:]
    p *= 1.0 - lr * WEIGHT_DECAY  # decoupled decay
    np.multiply(m, lr, out=update)
    p -= update
