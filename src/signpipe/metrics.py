"""Confusion matrix and per-class metrics for classifier evaluation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EvalReport:
    """accuracy = trace/total; empty rows or columns score 0, not NaN."""

    accuracy: float
    precision: np.ndarray
    recall: np.ndarray
    confusion: np.ndarray  # (C, C) counts, row = true, column = predicted

    def to_payload(self, class_names: list[str] | None = None) -> dict:
        """JSON-ready dict."""
        payload = {
            "accuracy": self.accuracy,
            "precision": [float(p) for p in self.precision],
            "recall": [float(r) for r in self.recall],
            "confusion": [[int(v) for v in row] for row in self.confusion],
        }
        if class_names is not None:
            payload["classes"] = list(class_names)
        return payload


def confusion_and_metrics(
    preds: np.ndarray, labels: np.ndarray, n_classes: int | None = None
) -> EvalReport:
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise ValueError(f"preds and labels must be equal-length 1-D, got {preds.shape} vs {labels.shape}")
    if len(preds) == 0:
        raise ValueError("cannot evaluate zero predictions")
    c = n_classes or int(max(preds.max(), labels.max())) + 1
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    row_sums = confusion.sum(axis=1)
    col_sums = confusion.sum(axis=0)
    diag = np.diag(confusion)
    with np.errstate(invalid="ignore"):
        recall = np.where(row_sums > 0, diag / np.maximum(row_sums, 1), 0.0)
        precision = np.where(col_sums > 0, diag / np.maximum(col_sums, 1), 0.0)
    return EvalReport(
        accuracy=float(diag.sum() / len(preds)),
        precision=precision,
        recall=recall,
        confusion=confusion,
    )
