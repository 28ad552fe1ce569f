"""Top-1 accuracy reports and the zero-shot cosine reference classifier.

``zero_shot`` deliberately avoids the model pipeline: it classifies by
cosine similarity between raw token means and the prompt-averaged text
embeddings. A freshly text-initialized model must reproduce its
predictions example by example, which is the central cross-check for
the head-initialization path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import EmbeddingDataset
from .errors import ShapeMismatch, ZeroNormPooled
from .headinit import TextEmbeddingBank, average_text_embeddings
from .model import POLICY_ALL, ModelParams, forward, forward_from


@dataclass
class EvalReport:
    """Accuracy summary: top1 = trace(confusion) / total."""

    top1: float
    per_class: np.ndarray  # (C,) accuracy per true class
    confusion: np.ndarray  # (C, C) int64, rows = true, cols = predicted

    def to_json_dict(self) -> dict:
        return {
            "top1": self.top1,
            "per_class": [float(x) for x in self.per_class],
            "confusion": self.confusion.tolist(),
        }


def _report(labels: np.ndarray, preds: np.ndarray, num_classes: int) -> EvalReport:
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    totals = confusion.sum(axis=1)
    diag = np.diagonal(confusion)
    per_class = np.where(totals > 0, diag / np.maximum(totals, 1), 0.0)
    top1 = float(diag.sum() / labels.shape[0])
    return EvalReport(top1=top1, per_class=per_class, confusion=confusion)


def predictions(params: ModelParams, ds: EmbeddingDataset) -> np.ndarray:
    """Predicted labels; ties go to the lowest class index."""
    cache = forward(params, ds.tokens)
    return np.argmax(cache.logits, axis=1).astype(np.int64)


def top1(params: ModelParams, ds: EmbeddingDataset,
         rows: np.ndarray | None = None, policy: str = POLICY_ALL) -> EvalReport:
    """Top-1 report, from ``rows = prefix(params, ds.tokens, policy)`` if given."""
    if params.num_classes != ds.num_classes:
        raise ShapeMismatch("model and dataset disagree on class count")
    cache = (forward(params, ds.tokens) if rows is None
             else forward_from(params, rows, policy))
    return _report(ds.labels, np.argmax(cache.logits, axis=1), ds.num_classes)


def zero_shot_predictions(bank: TextEmbeddingBank, ds: EmbeddingDataset) -> np.ndarray:
    """Argmax cosine between each example's token mean and the text rows."""
    rows = average_text_embeddings(bank)  # unit rows, (C, D)
    means = ds.tokens.mean(axis=1)  # (M, D)
    norms = np.linalg.norm(means, axis=1)
    if np.any(norms < 1e-12):
        raise ZeroNormPooled("token mean has zero norm")
    cosines = (means / norms[:, None]) @ rows.T
    return np.argmax(cosines, axis=1).astype(np.int64)


def zero_shot(bank: TextEmbeddingBank, ds: EmbeddingDataset) -> EvalReport:
    if bank.num_classes != ds.num_classes:
        raise ShapeMismatch("bank and dataset disagree on class count")
    return _report(ds.labels, zero_shot_predictions(bank, ds), ds.num_classes)
