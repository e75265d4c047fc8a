"""Soft-voting ensemble over a shared label space, plus stream decoding.

The landmark model distributes mass over 28 classes (letters + SPACE +
DELETE) and the silhouette model over 27 (letters + BLANK). Both project
into the 29-class shared space by zero-padding the classes they lack; the
combination is a convex sum with weights tuned on validation data.
`recognize` is the one path from the two heads' outputs to per-frame labels;
translation, evaluation and the weight search all go through it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .labels import (
    BLANK, CNN_CLASSES, DELETE, LETTERS, RFC_CLASSES, SHARED_CLASSES, SHARED_INDEX, SPACE,
)

N_SHARED = len(SHARED_CLASSES)


def project_rfc(p: np.ndarray) -> np.ndarray:
    """(…, 28) distribution -> (…, 29); BLANK gets zero mass."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape[-1] != len(RFC_CLASSES):
        raise ValueError(f"expected {len(RFC_CLASSES)} classes, got {p.shape[-1]}")
    out = np.zeros(p.shape[:-1] + (N_SHARED,))
    out[..., : len(RFC_CLASSES)] = p  # letters, SPACE, DELETE share indices
    return out


def project_cnn(p: np.ndarray) -> np.ndarray:
    """(…, 27) distribution -> (…, 29); SPACE and DELETE get zero mass."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape[-1] != len(CNN_CLASSES):
        raise ValueError(f"expected {len(CNN_CLASSES)} classes, got {p.shape[-1]}")
    out = np.zeros(p.shape[:-1] + (N_SHARED,))
    out[..., : len(LETTERS)] = p[..., : len(LETTERS)]
    out[..., SHARED_CLASSES.index(BLANK)] = p[..., CNN_CLASSES.index(BLANK)]
    return out


@dataclass(frozen=True)
class EnsembleWeights:
    w_rfc: float
    w_cnn: float

    def __post_init__(self):
        if self.w_rfc < 0 or self.w_cnn < 0:
            raise ValueError(f"weights must be >= 0, got ({self.w_rfc}, {self.w_cnn})")
        if abs(self.w_rfc + self.w_cnn - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {self.w_rfc + self.w_cnn}")


def combine(p_rfc: np.ndarray, p_cnn: np.ndarray, w: EnsembleWeights) -> np.ndarray:
    """Convex combination of two shared-space distributions."""
    p_rfc = np.asarray(p_rfc, dtype=np.float64)
    p_cnn = np.asarray(p_cnn, dtype=np.float64)
    if p_rfc.shape != p_cnn.shape or p_rfc.shape[-1] != N_SHARED:
        raise ValueError(
            f"mismatched label spaces: {p_rfc.shape} vs {p_cnn.shape} "
            f"(both must end in {N_SHARED})"
        )
    return w.w_rfc * p_rfc + w.w_cnn * p_cnn


def recognize(p_rfc: np.ndarray, p_cnn: np.ndarray, w: EnsembleWeights) -> np.ndarray:
    """Shared-space class index of each frame from raw (N, 28) forest and
    (N, 27) CNN distributions; ties go to the lowest index."""
    return np.argmax(combine(project_rfc(p_rfc), project_cnn(p_cnn), w), axis=1)


WEIGHT_GRID = tuple(round(0.05 * i, 2) for i in range(21))


def optimize_weights(
    p_rfc: np.ndarray, p_cnn: np.ndarray, y_true: np.ndarray
) -> tuple[EnsembleWeights, list[float]]:
    """Grid search w_rfc over {0, 0.05, …, 1} maximizing top-1 accuracy.

    Inputs are raw model distributions ((N, 28) and (N, 27)) with shared-space
    integer labels. Returns the winner plus the per-grid-point accuracies in
    grid order. The winner is the max of (accuracy, grid index), so among
    equal accuracies the larger w_rfc wins.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    if len(y_true) == 0:
        raise ValueError("validation set must be non-empty")
    if not (len(p_rfc) == len(p_cnn) == len(y_true)):
        raise ValueError(f"length mismatch: {len(p_rfc)}, {len(p_cnn)}, {len(y_true)}")
    grid = [EnsembleWeights(w_rfc=w, w_cnn=round(1.0 - w, 2)) for w in WEIGHT_GRID]
    accuracies = [float(np.mean(recognize(p_rfc, p_cnn, w) == y_true)) for w in grid]
    return grid[max(range(len(grid)), key=lambda i: (accuracies[i], i))], accuracies


@dataclass(frozen=True)
class StreamDecodeConfig:
    """Debounce: a class must hold k consecutive frames to stabilize."""

    k: int = 3

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"debounce k must be >= 1, got {self.k}")


def decode_stream(frames: list[str], cfg: StreamDecodeConfig = StreamDecodeConfig()) -> str:
    """Fold per-frame class labels into raw text.

    Every k consecutive identical frames stabilize that class. A stabilized
    letter is appended unless it equals the previous stabilization (repeat
    suppression); SPACE appends ' ', DELETE removes the last character, and
    BLANK just clears the suppression state.
    """
    text: list[str] = []
    run_class: str | None = None
    run_len = 0
    suppress: str | None = None
    for c in frames:
        if c not in SHARED_INDEX:
            raise ValueError(f"unknown class {c!r} in stream")
        if c == run_class:
            run_len += 1
        else:
            run_class, run_len = c, 1
        if run_len < cfg.k:
            continue
        run_len = 0  # stabilization consumes the run
        if c == SPACE:
            text.append(" ")
            suppress = None
        elif c == DELETE:
            if text:
                text.pop()
            suppress = None
        elif c == BLANK:
            suppress = None
        elif c != suppress:
            text.append(c)
            suppress = c
    return "".join(text)
