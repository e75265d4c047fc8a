"""Hand-landmark ingestion: one gesture observation as a flat labelled row.

A gesture observation is 42 tracked 3-D points, held as the 126-value row
(x1, y1, z1, ..., x42, y42, z42) that datagen draws, the landmark CSV stores
and the forest trains on. The forest consumes the row as it is: its
axis-aligned splits route rows the same way under any per-feature affine
rescale, so no normalization step is applied.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

N_POINTS = 42
N_FEATURES = 3 * N_POINTS


class LandmarkFrame(NamedTuple):
    """One labelled gesture observation: the (126,) float64 row in CSV column order."""

    values: np.ndarray
    label: str


def unflatten(values: np.ndarray, label: str) -> LandmarkFrame:
    """A checked frame: exactly 126 finite values, or a ValueError."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (N_FEATURES,):
        raise ValueError(f"expected {N_FEATURES} values, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("landmark coordinates must be finite")
    return LandmarkFrame(values, label)
