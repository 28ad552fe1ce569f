"""Classification-head initialization from prompt-ensembled text embeddings.

The head weight can be built three ways: from the normalized prompt
average of every class name (``cni``), from random unit rows
(``random``), or from a seeded mix of the two (``partial``). The bias
always starts at zero. Digit or foreign-language variants are not
special modes here; they are simply different embedding banks supplied
by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ShapeMismatch, ZeroNormRow
from .rng import Stream

MODE_RANDOM = "random"
MODE_CNI = "cni"
MODE_PARTIAL = "partial"

_NORM_EPS = 1e-12


@dataclass
class TextEmbeddingBank:
    """N prompts x C classes x D text embeddings plus naming metadata."""

    embeddings: np.ndarray  # (N, C, D)
    prompt_templates: list[str] = field(default_factory=list)
    class_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        emb = np.asarray(self.embeddings, dtype=np.float64)
        if emb.ndim != 3:
            raise ShapeMismatch("bank embeddings must have shape (N, C, D)")
        n, c, d = emb.shape
        if n < 1 or c < 2 or d < 1:
            raise DataError(f"bank requires N>=1, C>=2, D>=1, got {emb.shape}")
        if not np.all(np.isfinite(emb)):
            raise DataError("bank embeddings contain NaN or Inf")
        if self.prompt_templates and len(self.prompt_templates) != n:
            raise DataError("prompt_templates must be empty or length N")
        if self.class_names and len(self.class_names) != c:
            raise DataError("class_names must be empty or length C")
        self.embeddings = emb

    @property
    def num_prompts(self) -> int:
        return self.embeddings.shape[0]

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


@dataclass
class Head:
    """Linear head: unit-norm weight rows, zero bias, per-row provenance."""

    W: np.ndarray  # (C, D)
    b: np.ndarray  # (C,)
    init_provenance: list[str]  # per row: "text" or "random"


def average_text_embeddings(bank: TextEmbeddingBank) -> np.ndarray:
    """Mean over the prompt axis, then L2-normalize each class row.

    Raises ZeroNormRow if prompt embeddings for a class cancel out.
    """
    mean = bank.embeddings.mean(axis=0)  # (C, D)
    norms = np.linalg.norm(mean, axis=1)
    for c, nrm in enumerate(norms):
        if nrm < _NORM_EPS:
            raise ZeroNormRow(c)
    return mean / norms[:, None]


def init_head(
    spec: HeadInitSpec,
    avg: np.ndarray | None,
    num_classes: int,
    dim: int,
) -> Head:
    """Build the head weight/bias per ``spec``.

    ``avg`` is the (C, D) output of average_text_embeddings; required for
    cni and partial modes. Random rows are drawn i.i.d. standard normal
    and normalized to unit length so they match the text rows' norms.
    Partial mode Fisher-Yates-shuffles the class indices with the seeded
    stream, keeps the first floor(fraction*C) of them as text rows, then
    draws the remaining rows from the same stream in ascending class
    order.
    """
    if spec.mode in (MODE_CNI, MODE_PARTIAL):
        if avg is None:
            raise ShapeMismatch(f"{spec.mode} init requires averaged text embeddings")
        avg = np.asarray(avg, dtype=np.float64)
        if avg.shape != (num_classes, dim):
            raise ShapeMismatch(
                f"averaged embeddings shape {avg.shape} != ({num_classes}, {dim})"
            )

    b = np.zeros(num_classes, dtype=np.float64)

    if spec.mode == MODE_CNI:
        return Head(W=avg.copy(), b=b, init_provenance=["text"] * num_classes)

    stream = Stream(spec.seed)
    if spec.mode == MODE_RANDOM:
        W = stream.unit_rows(num_classes, dim)
        return Head(W=W, b=b, init_provenance=["random"] * num_classes)

    # partial: seeded shuffle picks which classes keep their text rows
    order = stream.permutation(num_classes)
    n_text = int(np.floor(spec.fraction * num_classes))
    text_rows = set(order[:n_text])
    provenance = ["text" if c in text_rows else "random"
                  for c in range(num_classes)]
    random_rows = [c for c in range(num_classes) if c not in text_rows]
    W = avg.copy()
    W[random_rows] = stream.unit_rows(len(random_rows), dim)
    return Head(W=W, b=b, init_provenance=provenance)
