"""Deterministic k-shot subsampling and the synthetic embedding benchmark.

The synthetic generator stands in for a pretrained encoder pair: image
tokens and text embeddings are noisy copies of shared class prototypes
on the unit sphere, modeling the aligned embedding space of contrastive
pretraining. All randomness flows through the pinned PRNG in
:mod:`cniprobe.rng`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, InsufficientExamples, LabelOutOfRange
from .headinit import TextEmbeddingBank
from .rng import Stream, substream_seed

# substream ids for make_synthetic
_SUB_PROTOTYPES = 0
_SUB_TRAIN = 1
_SUB_TEST = 2
_SUB_TEXT = 3


@dataclass
class EmbeddingDataset:
    """M examples x T tokens x D image-token embeddings with labels."""

    tokens: np.ndarray  # (M, T, D)
    labels: np.ndarray  # (M,) integer
    num_classes: int

    def __post_init__(self):
        tokens = np.asarray(self.tokens, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if tokens.ndim != 3:
            raise DataError("tokens must have shape (M, T, D)")
        m, t, d = tokens.shape
        if m < 1 or t < 1 or d < 1:
            raise DataError(f"dataset requires M,T,D >= 1, got {tokens.shape}")
        if labels.shape != (m,):
            raise DataError(f"labels shape {labels.shape} != ({m},)")
        if self.num_classes < 1:
            raise DataError("num_classes must be >= 1")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise LabelOutOfRange(
                f"labels must lie in [0, {self.num_classes})"
            )
        if not np.all(np.isfinite(tokens)):
            raise DataError("tokens contain NaN or Inf")
        self.tokens = tokens
        self.labels = labels

    @property
    def num_examples(self) -> int:
        return self.tokens.shape[0]

    @property
    def dim(self) -> int:
        return self.tokens.shape[2]

    def subset(self, indices: list[int]) -> "EmbeddingDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return EmbeddingDataset(
            tokens=self.tokens[idx].copy(),
            labels=self.labels[idx].copy(),
            num_classes=self.num_classes,
        )


@dataclass
class ShotSpec:
    """Either k shots per class or a class-stratified training fraction."""

    k: int | None = None
    fraction: float | None = None
    seed: int = 0

    def __post_init__(self):
        if (self.k is None) == (self.fraction is None):
            raise ConfigError("exactly one of k / fraction must be set")
        if self.k is not None and self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.fraction is not None and not 0.0 < self.fraction <= 1.0:
            raise ConfigError("fraction must lie in (0, 1]")


def sample_k_shot(ds: EmbeddingDataset, spec: ShotSpec) -> list[int]:
    """Pick a deterministic per-class subset of example indices.

    Classes are visited in ascending order; each class's index list
    (ascending) is Fisher-Yates-shuffled with a single xorshift64*
    stream seeded from ``spec.seed`` and the first k (or
    ceil(fraction * class size), at least one) entries are kept.
    """
    stream = Stream(spec.seed)
    out: list[int] = []
    for c in range(ds.num_classes):
        idx = [int(i) for i in np.flatnonzero(ds.labels == c)]
        if spec.k is not None:
            need = spec.k
            if len(idx) < need:
                raise InsufficientExamples(c, len(idx), need)
        else:
            need = math.ceil(spec.fraction * len(idx))
            if need < 1:
                raise InsufficientExamples(c, len(idx), 1)
        stream.shuffle(idx)
        out.extend(idx[:need])
    return out


def _unit_rows(stream: Stream, count: int, dim: int, base: np.ndarray | None,
               noise: float) -> np.ndarray:
    """Rows = normalize(base + noise * gaussian); base copied when noise == 0."""
    rows = np.empty((count, dim), dtype=np.float64)
    for i in range(count):
        if base is not None and noise == 0.0:
            rows[i] = base
            continue
        while True:
            v = stream.gaussians(dim) if base is None \
                else base + noise * stream.gaussians(dim)
            nrm = np.linalg.norm(v)
            if nrm >= 1e-12:
                rows[i] = v / nrm
                break
    return rows


def make_synthetic(
    num_classes: int,
    dim: int,
    tokens_per_example: int,
    train_per_class: int,
    test_per_class: int,
    num_prompts: int,
    img_noise: float,
    txt_noise: float,
    seed: int,
) -> tuple[EmbeddingDataset, EmbeddingDataset, TextEmbeddingBank]:
    """Generate aligned synthetic image tokens and text embeddings.

    Class prototypes are drawn uniformly on the unit sphere in R^dim.
    Every image token is normalize(prototype + N(0, img_noise^2 I)) and
    every text embedding is normalize(prototype + N(0, txt_noise^2 I)).
    Examples are laid out class-major (all of class 0 first). Four
    independent substreams of ``seed`` are consumed: 0 prototypes,
    1 train tokens, 2 test tokens, 3 text embeddings.
    """
    if num_classes < 2:
        raise ConfigError("num_classes must be >= 2")
    if min(dim, tokens_per_example, train_per_class, test_per_class,
           num_prompts) < 1:
        raise ConfigError("all synthetic benchmark counts must be positive")
    if img_noise < 0 or txt_noise < 0:
        raise ConfigError("noise levels must be >= 0")

    proto_stream = Stream(substream_seed(seed, _SUB_PROTOTYPES))
    prototypes = _unit_rows(proto_stream, num_classes, dim, base=None, noise=1.0)

    def build_split(per_class: int, sub: int) -> EmbeddingDataset:
        stream = Stream(substream_seed(seed, sub))
        m = num_classes * per_class
        tokens = np.empty((m, tokens_per_example, dim), dtype=np.float64)
        labels = np.empty(m, dtype=np.int64)
        row = 0
        for c in range(num_classes):
            for _ in range(per_class):
                tokens[row] = _unit_rows(
                    stream, tokens_per_example, dim, prototypes[c], img_noise
                )
                labels[row] = c
                row += 1
        return EmbeddingDataset(tokens=tokens, labels=labels,
                                num_classes=num_classes)

    train = build_split(train_per_class, _SUB_TRAIN)
    test = build_split(test_per_class, _SUB_TEST)

    text_stream = Stream(substream_seed(seed, _SUB_TEXT))
    emb = np.empty((num_prompts, num_classes, dim), dtype=np.float64)
    for n in range(num_prompts):
        for c in range(num_classes):
            emb[n, c] = _unit_rows(text_stream, 1, dim, prototypes[c], txt_noise)[0]

    bank = TextEmbeddingBank(
        embeddings=emb,
        prompt_templates=[f"synthetic prompt {n}" for n in range(num_prompts)],
        class_names=[f"class_{c:02d}" for c in range(num_classes)],
    )
    return train, test, bank

