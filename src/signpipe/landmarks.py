"""Hand-landmark ingestion: one gesture observation as a flat feature vector.

A gesture observation is 42 tracked 3-D points. The forest consumes the
flattened 126-value vector as it is: its axis-aligned splits route rows the
same way under any per-feature affine rescale, so no normalization step is
applied.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_POINTS = 42
N_FEATURES = 3 * N_POINTS


@dataclass(frozen=True)
class LandmarkFrame:
    """One gesture observation: 42 ordered (x, y, z) points plus an optional label."""

    points: np.ndarray  # (42, 3) float64
    label: str | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.shape != (N_POINTS, 3):
            raise ValueError(f"expected {N_POINTS} landmark points, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("landmark coordinates must be finite")
        object.__setattr__(self, "points", pts)
        self.points.setflags(write=False)


def flatten(frame: LandmarkFrame) -> np.ndarray:
    """Flatten a frame to the 126-vector (x1, y1, z1, ..., x42, y42, z42)."""
    return frame.points.reshape(N_FEATURES).copy()


def unflatten(values: np.ndarray, label: str | None = None) -> LandmarkFrame:
    """Inverse of :func:`flatten`; used for round-trip checks and CSV ingestion."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (N_FEATURES,):
        raise ValueError(f"expected {N_FEATURES} values, got shape {values.shape}")
    return LandmarkFrame(points=values.reshape(N_POINTS, 3), label=label)

