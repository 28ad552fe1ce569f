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

from .dataset import EmbeddingDataset, sample_k_shot
from .errors import ConfigError, ShapeMismatch
from .model import ModelParams, forward
from .train import MetricHistory, TrainConfig, _run


def teacher_predict(teacher: ModelParams, tokens: np.ndarray) -> np.ndarray:
    """Teacher probability rows for a (B, T, D) token batch."""
    return forward(teacher, tokens).probs


def distill_train(
    teacher: ModelParams,
    student0: ModelParams,
    labeled_ds: EmbeddingDataset,
    unlabeled_ds: EmbeddingDataset | None,
    test_ds: EmbeddingDataset,
    cfg: TrainConfig,
) -> tuple[ModelParams, MetricHistory]:
    """Train a student with CE on labels + weighted KL to the teacher.

    The unlabeled pool may be None only when cfg.loss.distill_weight
    is zero, in which case the run is exactly a plain ALL-policy
    training run on the labeled set.
    """
    if (teacher.num_classes != student0.num_classes
            or teacher.dim != student0.dim):
        raise ShapeMismatch("teacher and student must share C and D")
    cfg = replace(cfg, policy="ALL")

    data = labeled_ds
    if cfg.shot_spec is not None:
        data = labeled_ds.subset(sample_k_shot(labeled_ds, cfg.shot_spec))

    pool = None
    if cfg.loss.distill_weight > 0.0:
        if unlabeled_ds is None or unlabeled_ds.num_examples == 0:
            raise ConfigError(
                "distill_weight > 0 requires a non-empty unlabeled pool"
            )
        if unlabeled_ds.dim != student0.dim:
            raise ShapeMismatch("unlabeled pool dim does not match student")
        pool = (unlabeled_ds.tokens,
                teacher_predict(teacher, unlabeled_ds.tokens))
    return _run(student0, data, test_ds, cfg, pool)
