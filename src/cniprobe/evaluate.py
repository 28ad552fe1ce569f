"""Top-1 accuracy reports and the zero-shot cosine reference classifier.

``zero_shot`` deliberately avoids the model pipeline: it classifies by
cosine similarity between raw token means and the prompt-averaged text
embeddings. A freshly text-initialized model must reproduce its
predictions example by example, which is the central cross-check for
the head-initialization path.
"""

from __future__ import annotations

import numpy as np

from .dataset import EmbeddingDataset
from .errors import DataError, NumericalError
from .headinit import TextEmbeddingBank, average_text_embeddings
from .model import POLICY_ALL, ModelParams, forward, forward_from


class EvalReport:
    """Accuracy of ``preds`` against ``labels``: ``top1``, the share right,
    and, computed when read, ``confusion`` ((C, C) int64, rows true, cols
    predicted) and ``per_class``, each true class's accuracy (0 if empty)."""

    def __init__(self, labels: np.ndarray, preds: np.ndarray, num_classes: int):
        self.labels, self.preds, self.num_classes = labels, preds, num_classes
        self.top1 = float(np.count_nonzero(labels == preds) / labels.shape[0])

    @property
    def confusion(self) -> np.ndarray:
        c = self.num_classes
        return np.bincount(self.labels * c + self.preds, minlength=c * c).reshape(c, c)

    @property
    def per_class(self) -> np.ndarray:  # an empty class's diagonal is 0
        confusion = self.confusion
        return np.diagonal(confusion) / np.maximum(confusion.sum(axis=1), 1)

    def to_json_dict(self) -> dict:
        return {
            "top1": self.top1,
            "per_class": [float(x) for x in self.per_class],
            "confusion": self.confusion.tolist(),
        }


def predictions(params: ModelParams, ds: EmbeddingDataset) -> np.ndarray:
    """Predicted labels; ties go to the lowest class index."""
    cache = forward(params, ds.tokens)
    return np.argmax(cache.logits, axis=1).astype(np.int64)


def top1(params: ModelParams, ds: EmbeddingDataset,
         rows: np.ndarray | None = None, policy: str = POLICY_ALL) -> EvalReport:
    """Top-1 report, from ``rows = prefix(params, ds.tokens, policy)`` if given."""
    if params.num_classes != ds.num_classes:
        raise DataError("model and dataset disagree on class count")
    cache = (forward(params, ds.tokens) if rows is None
             else forward_from(params, rows, policy))
    return EvalReport(ds.labels, np.argmax(cache.logits, axis=1), ds.num_classes)


def zero_shot_predictions(bank: TextEmbeddingBank, ds: EmbeddingDataset) -> np.ndarray:
    """Argmax cosine between each example's token mean and the text rows."""
    rows = average_text_embeddings(bank)  # unit rows, (C, D)
    means = ds.tokens.mean(axis=1)  # (M, D)
    norms = np.linalg.norm(means, axis=1)
    if np.any(norms < 1e-12):
        raise NumericalError("token mean has zero norm")
    cosines = (means / norms[:, None]) @ rows.T
    return np.argmax(cosines, axis=1).astype(np.int64)


def zero_shot(bank: TextEmbeddingBank, ds: EmbeddingDataset) -> EvalReport:
    if (bank.num_classes, bank.dim) != (ds.num_classes, ds.dim):
        raise DataError(f"bank (C={bank.num_classes}, D={bank.dim}) and "
                        f"dataset (C={ds.num_classes}, D={ds.dim}) disagree")
    return EvalReport(ds.labels, zero_shot_predictions(bank, ds), ds.num_classes)
