"""Confusion matrix and per-class metrics for classifier evaluation."""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def confusion_and_metrics(preds: np.ndarray, labels: np.ndarray, class_names: Sequence[str]) -> dict:
    """JSON-ready report: accuracy = trace/total, per-class precision and
    recall (an empty row or column scores 0, not NaN), and the confusion
    matrix with row = true class, column = predicted class."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise ValueError(f"preds and labels must be equal-length 1-D, got {preds.shape} vs {labels.shape}")
    if len(preds) == 0:
        raise ValueError("cannot evaluate zero predictions")
    c = len(class_names)
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    diag = np.diag(confusion)
    return {
        "accuracy": float(diag.sum() / len(preds)),
        "precision": (diag / np.maximum(confusion.sum(axis=0), 1)).tolist(),
        "recall": (diag / np.maximum(confusion.sum(axis=1), 1)).tolist(),
        "confusion": confusion.tolist(),
        "classes": list(class_names),
    }
