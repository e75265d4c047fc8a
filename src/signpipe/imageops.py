"""8-bit image utilities: Otsu's threshold and round-half-up to 8 bits.

Images are uint8 arrays of shape (height, width). Pipeline frames are
already binary (0 or 255) and 32x32, so nothing here sits on a pipeline
path: the threshold is the one the exhaustive oracle of the acceptance
suite pins, and the rounding keeps synthesized frames valid 8-bit images.
"""
from __future__ import annotations

import numpy as np


def round_half_up_u8(values: np.ndarray) -> np.ndarray:
    """Round half away from zero upward and clamp to the 8-bit range."""
    return np.clip(np.floor(np.asarray(values, dtype=np.float64) + 0.5), 0, 255).astype(np.uint8)


def otsu_threshold(img: np.ndarray) -> int:
    """Threshold maximizing the between-class variance of a uint8 (H, W) image.

    Pixels <= t form class 0. Ties resolve to the lowest t; a constant image
    returns its single pixel value.
    """
    arr = np.asarray(img)
    if arr.ndim != 2 or arr.size == 0 or arr.dtype != np.uint8:
        raise ValueError(f"expected a non-empty 2-D uint8 image, got {arr.dtype} {arr.shape}")
    lo, hi = int(arr.min()), int(arr.max())
    if lo == hi:
        return lo
    # For each t: omega0/omega1 are the shares of pixels <= t and > t, n0/n1
    # their counts, mu0/mu1 the class means (0 for an empty class), and
    # sigma_b2 the between-class variance omega0 * omega1 * (mu0 - mu1)^2.
    hist = np.bincount(arr.ravel(), minlength=256).astype(np.float64)
    total = hist.sum()
    levels = np.arange(256, dtype=np.float64)
    cum_count = np.cumsum(hist)
    cum_mass = np.cumsum(hist * levels)
    omega0 = cum_count / total
    omega1 = 1.0 - omega0
    n0 = cum_count
    n1 = total - cum_count
    with np.errstate(invalid="ignore", divide="ignore"):
        mu0 = np.where(n0 > 0, cum_mass / n0, 0.0)
        mu1 = np.where(n1 > 0, (cum_mass[-1] - cum_mass) / n1, 0.0)
    sigma_b2 = np.where((n0 > 0) & (n1 > 0), omega0 * omega1 * (mu0 - mu1) ** 2, 0.0)
    return int(np.argmax(sigma_b2))
