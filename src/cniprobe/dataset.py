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

from .errors import (ConfigError, DataError, InsufficientExamples, LabelOutOfRange,
                     ShapeMismatch)
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
        labels = np.asarray(self.labels)
        if tokens.ndim != 3:
            raise ShapeMismatch(f"tokens shape {tokens.shape} is not (M, T, D)")
        m, t, d = tokens.shape
        if m < 1 or t < 1 or d < 1:
            raise DataError(f"dataset requires M,T,D >= 1, got {tokens.shape}")
        if labels.shape != (m,):
            raise ShapeMismatch(f"labels shape {labels.shape} != ({m},)")
        if self.num_classes < 1:
            raise DataError("num_classes must be >= 1")
        # both checks come before the int64 cast
        if np.any(labels != np.round(labels)):
            raise LabelOutOfRange("labels must be integral")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise LabelOutOfRange(
                f"labels must lie in [0, {self.num_classes})"
            )
        if not np.all(np.isfinite(tokens)):
            raise DataError("tokens contain NaN or Inf")
        self.tokens = tokens
        self.labels = labels.astype(np.int64)

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
    """k shots per class, sampled at ``seed``; k must be given."""

    k: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.k is None or self.k < 1:
            raise ConfigError("k must be set and >= 1")


def sample_k_shot(ds: EmbeddingDataset, spec: ShotSpec) -> list[int]:
    """Pick a deterministic per-class subset of example indices.

    Classes are visited in ascending order; each class's index list
    (ascending) is Fisher-Yates-shuffled with a single xorshift64*
    stream seeded from ``spec.seed`` and the first k entries are kept.
    """
    stream = Stream(spec.seed)
    out: list[int] = []
    for c in range(ds.num_classes):
        idx = [int(i) for i in np.flatnonzero(ds.labels == c)]
        if len(idx) < spec.k:
            raise InsufficientExamples(c, len(idx), spec.k)
        stream.shuffle(idx)
        out.extend(idx[:spec.k])
    return out


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic generator settings; the defaults are the pinned benchmark's.

    ``synth``'s flags, its config keys and the manifest's ``generator``
    echo have exactly these fields.
    """

    classes: int = 10
    dim: int = 32
    tokens: int = 4
    train_per_class: int = 50
    test_per_class: int = 50
    prompts: int = 8
    img_noise: float = 0.35
    txt_noise: float = 0.15
    seed: int = 1

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError("classes must be >= 2")
        if min(self.dim, self.tokens, self.train_per_class,
               self.test_per_class, self.prompts) < 1:
            raise ConfigError("all synthetic benchmark counts must be positive")
        if not (0 <= self.img_noise < math.inf
                and 0 <= self.txt_noise < math.inf):
            raise ConfigError("noise levels must be finite and >= 0")


def make_synthetic(spec: SynthSpec
                   ) -> tuple[EmbeddingDataset, EmbeddingDataset, TextEmbeddingBank]:
    """Generate aligned synthetic image tokens and text embeddings.

    Class prototypes are drawn uniformly on the unit sphere in R^dim.
    Every image token is normalize(prototype + N(0, img_noise^2 I)) and
    every text embedding is normalize(prototype + N(0, txt_noise^2 I)).
    Examples are laid out class-major (all of class 0 first). Four
    independent substreams of ``spec.seed`` are consumed: 0 prototypes,
    1 train tokens, 2 test tokens, 3 text embeddings.
    """
    num_classes, dim, t, seed = spec.classes, spec.dim, spec.tokens, spec.seed
    prototypes = Stream(substream_seed(seed, _SUB_PROTOTYPES)).unit_rows(
        num_classes, dim)

    def build_split(per_class: int, sub: int) -> EmbeddingDataset:
        stream = Stream(substream_seed(seed, sub))
        tokens = np.empty((num_classes, per_class * t, dim))
        for c in range(num_classes):
            tokens[c] = stream.unit_rows(per_class * t, dim, prototypes[c],
                                         spec.img_noise)
        return EmbeddingDataset(
            tokens=tokens.reshape(-1, t, dim),
            labels=np.arange(num_classes, dtype=np.int64).repeat(per_class),
            num_classes=num_classes)

    train = build_split(spec.train_per_class, _SUB_TRAIN)
    test = build_split(spec.test_per_class, _SUB_TEST)

    emb = Stream(substream_seed(seed, _SUB_TEXT)).unit_rows(
        spec.prompts * num_classes, dim, np.tile(prototypes, (spec.prompts, 1)),
        spec.txt_noise)

    bank = TextEmbeddingBank(
        embeddings=emb.reshape(spec.prompts, num_classes, dim),
        prompt_templates=[f"synthetic prompt {n}" for n in range(spec.prompts)],
        class_names=[f"class_{c:02d}" for c in range(num_classes)],
    )
    return train, test, bank
