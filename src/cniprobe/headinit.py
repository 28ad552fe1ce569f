"""Classification-head initialization from prompt-ensembled text embeddings.

The head is its (C, D) weight matrix, built three ways: from the
normalized prompt average of every class name (``cni``), from random
unit rows (``random``), or from a seeded mix of the two (``partial``).
``model.init_params`` starts the bias at zero. Digit or
foreign-language variants are not special modes here; they are simply
different embedding banks supplied by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .rng import Stream

MODE_RANDOM = "random"
MODE_CNI = "cni"
MODE_PARTIAL = "partial"

_NORM_EPS = 1e-12


@dataclass
class TextEmbeddingBank:
    """N prompts x C classes x D text embeddings, one per prompt template
    and class name: the only form in which the names reach the head."""

    embeddings: np.ndarray  # (N, C, D)

    def __post_init__(self):
        emb = np.asarray(self.embeddings, dtype=np.float64)
        if emb.ndim != 3:
            raise DataError("bank embeddings must have shape (N, C, D)")
        n, c, d = emb.shape
        if n < 1 or c < 2 or d < 1:
            raise DataError(f"bank requires N>=1, C>=2, D>=1, got {emb.shape}")
        if not np.all(np.isfinite(emb)):
            raise DataError("bank embeddings contain NaN or Inf")
        self.embeddings = emb

    @property
    def num_classes(self) -> int:
        return self.embeddings.shape[1]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[2]


@dataclass
class HeadInitSpec:
    """How to build the head: mode, optional text fraction, RNG seed."""

    mode: str = MODE_CNI
    fraction: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (MODE_RANDOM, MODE_CNI, MODE_PARTIAL):
            raise ConfigError(f"unknown head init mode {self.mode!r}")
        if self.mode == MODE_PARTIAL:
            if self.fraction is None:
                raise ConfigError("partial init requires a fraction")
            if not 0.0 <= self.fraction <= 1.0:
                raise ConfigError("fraction must lie in [0, 1]")
        elif self.fraction is not None:
            raise ConfigError("fraction applies only to partial init, "
                              f"not {self.mode!r}")


def average_text_embeddings(bank: TextEmbeddingBank) -> np.ndarray:
    """Mean over the prompt axis, then L2-normalize each class row.

    Raises NumericalError if prompt embeddings for a class cancel out.
    """
    mean = bank.embeddings.mean(axis=0)  # (C, D)
    norms = np.linalg.norm(mean, axis=1)
    for c, nrm in enumerate(norms):
        if nrm < _NORM_EPS:
            raise NumericalError(f"mean embedding for class {c} has zero norm")
    return mean / norms[:, None]


def init_head(
    spec: HeadInitSpec,
    avg: np.ndarray,
    num_classes: int,
    dim: int,
) -> np.ndarray:
    """The (C, D) head weight per ``spec``.

    ``avg`` is the (C, D) output of average_text_embeddings; random mode
    checks its shape but does not use it. Random rows are drawn i.i.d.
    standard normal and normalized to unit length so they match the
    text rows' norms.
    Partial mode Fisher-Yates-shuffles the class indices with the seeded
    stream, keeps the first floor(fraction*C) of them as text rows, then
    draws the remaining rows from the same stream in ascending class
    order. Which rows are text is not recorded: they are the rows equal
    to ``avg``'s, and the spec rebuilds the head.
    """
    avg = np.asarray(avg, dtype=np.float64)
    if avg.shape != (num_classes, dim):
        raise DataError(
            f"averaged embeddings shape {avg.shape} != ({num_classes}, {dim})")
    if spec.mode == MODE_CNI:
        return avg.copy()

    stream = Stream(spec.seed)
    if spec.mode == MODE_RANDOM:
        return stream.unit_rows(num_classes, dim)

    # partial: seeded shuffle picks which classes keep their text rows
    order = stream.permutation(num_classes)
    random_rows = sorted(order[int(np.floor(spec.fraction * num_classes)):])
    W = avg.copy()
    W[random_rows] = stream.unit_rows(len(random_rows), dim)
    return W
