"""Teacher-student distillation on a labeled few-shot set plus a pool.

The teacher is frozen; its probabilities over the unlabeled pool are
computed once up front. Every training step then combines the labeled
cross-entropy batch with a KL batch drawn from the pool by an
independent PRNG substream, so labeled batch order is identical to a
plain training run with the same seed. The student always fine-tunes
all parameter groups.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .dataset import EmbeddingDataset
from .errors import ConfigError, DataError
from .model import ModelParams, forward
from .train import MetricHistory, TrainConfig, train


def teacher_predict(teacher: ModelParams, tokens: np.ndarray) -> np.ndarray:
    """Teacher probability rows for a (B, T, D) token batch."""
    return forward(teacher, tokens).probs


def distill_train(
    teacher: ModelParams | None,
    student0: ModelParams,
    labeled_ds: EmbeddingDataset,
    unlabeled_ds: EmbeddingDataset | None,
    test_ds: EmbeddingDataset,
    cfg: TrainConfig,
) -> tuple[ModelParams, MetricHistory]:
    """Train a student with CE on labels + weighted KL to the teacher.

    The teacher and the unlabeled pool are used only when
    cfg.loss.distill_weight is positive; at weight zero either may be
    None and the run is exactly a plain ALL-policy training run on the
    labeled set. A given teacher must share the student's C and D.
    """
    if teacher is not None and (teacher.num_classes != student0.num_classes
                                or teacher.dim != student0.dim):
        raise DataError("teacher and student must share C and D")
    cfg = replace(cfg, policy="ALL")
    if cfg.loss.distill_weight == 0.0:
        return train(student0, labeled_ds, test_ds, cfg)
    if teacher is None or unlabeled_ds is None:
        raise ConfigError("distill_weight > 0 requires a teacher and an "
                          "unlabeled pool")
    pool = (unlabeled_ds.tokens, teacher_predict(teacher, unlabeled_ds.tokens))
    return train(student0, labeled_ds, test_ds, cfg, pool)
