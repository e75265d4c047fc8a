"""Grayscale image utilities: Otsu thresholding, binarization, resizing.

Images are 8-bit single-channel numpy arrays of shape (height, width).
All operations are pure; float results clamp back to [0, 255] with
round-half-up so they stay valid 8-bit images.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def as_gray(img: np.ndarray) -> np.ndarray:
    """Validate and return an image as a (H, W) uint8 array."""
    arr = np.asarray(img)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"expected a 2-D image with positive extents, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        if np.issubdtype(arr.dtype, np.integer) and arr.min() >= 0 and arr.max() <= 255:
            arr = arr.astype(np.uint8)
        else:
            raise ValueError("image must be 8-bit (uint8 or integer values in [0, 255])")
    return arr


def round_half_up_u8(values: np.ndarray) -> np.ndarray:
    """Round half away from zero upward and clamp to the 8-bit range."""
    return np.clip(np.floor(np.asarray(values, dtype=np.float64) + 0.5), 0, 255).astype(np.uint8)


@dataclass(frozen=True)
class HistogramStats:
    """Per-threshold histogram statistics for thresholds t = 0..255.

    omega0[t] is the probability of a pixel being <= t, mu0/mu1 the class
    means (0 for an empty class), and sigma_b2 the between-class variance
    omega0 * omega1 * (mu0 - mu1)^2.
    """

    omega0: np.ndarray
    omega1: np.ndarray
    mu0: np.ndarray
    mu1: np.ndarray
    sigma_b2: np.ndarray


def histogram_stats(img: np.ndarray) -> HistogramStats:
    """Compute class probabilities, class means, and between-class variance."""
    arr = as_gray(img)
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
    return HistogramStats(omega0=omega0, omega1=omega1, mu0=mu0, mu1=mu1, sigma_b2=sigma_b2)


def otsu_threshold(img: np.ndarray) -> int:
    """Threshold maximizing the between-class variance.

    Pixels <= t form class 0. Ties resolve to the lowest t; a constant image
    returns its single pixel value (binarization then yields all-background).
    """
    arr = as_gray(img)
    lo, hi = int(arr.min()), int(arr.max())
    if lo == hi:
        return lo
    stats = histogram_stats(arr)
    return int(np.argmax(stats.sigma_b2))


def binarize(img: np.ndarray, t: int) -> np.ndarray:
    """Two-level silhouette: pixels above t become foreground 255, the rest 0."""
    if not 0 <= t <= 255:
        raise ValueError(f"threshold must be in [0, 255], got {t}")
    arr = as_gray(img)
    return np.where(arr > t, 255, 0).astype(np.uint8)


def resize(img: np.ndarray, width: int, height: int) -> np.ndarray:
    """Bilinear resize with corner-aligned sampling.

    Output corners sample input corners exactly, so a same-size resize is a
    bit-identical copy. A single-row or single-column output samples index 0.
    """
    if width < 1 or height < 1:
        raise ValueError("target dimensions must be >= 1")
    arr = as_gray(img)
    h, w = arr.shape
    if (w, h) == (width, height):
        return arr.copy()
    src = arr.astype(np.float64)
    xs = np.arange(width, dtype=np.float64) * ((w - 1) / (width - 1)) if width > 1 else np.zeros(1)
    ys = np.arange(height, dtype=np.float64) * ((h - 1) / (height - 1)) if height > 1 else np.zeros(1)
    x0 = np.clip(np.floor(xs).astype(np.intp), 0, w - 1)
    y0 = np.clip(np.floor(ys).astype(np.intp), 0, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (xs - x0)[None, :]
    fy = (ys - y0)[:, None]
    top = src[np.ix_(y0, x0)] * (1 - fx) + src[np.ix_(y0, x1)] * fx
    bottom = src[np.ix_(y1, x0)] * (1 - fx) + src[np.ix_(y1, x1)] * fx
    return round_half_up_u8(top * (1 - fy) + bottom * fy)
