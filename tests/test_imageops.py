import numpy as np
import pytest

from signpipe import imageops

from conftest import random_images


def reference_otsu(img: np.ndarray) -> int:
    """Independent exhaustive search: maximize between-class variance
    directly from pixel masks, lowest threshold on ties."""
    flat = img.reshape(-1).astype(np.float64)
    best_t, best_var = 0, -1.0
    for t in range(256):
        low = flat[flat <= t]
        high = flat[flat > t]
        if len(low) == 0 or len(high) == 0:
            var = 0.0
        else:
            w0 = len(low) / len(flat)
            w1 = 1.0 - w0
            var = w0 * w1 * (low.mean() - high.mean()) ** 2
        if var > best_var:
            best_t, best_var = t, var
    return best_t


def test_otsu_matches_exhaustive_reference():
    for img in random_images(25, 16, seed=11):
        assert imageops.otsu_threshold(img) == reference_otsu(img)


def test_otsu_bimodal():
    img = np.array([[10] * 8, [200] * 8], dtype=np.uint8)
    t = imageops.otsu_threshold(img)
    assert 10 <= t < 200
    b = imageops.binarize(img, t)
    assert set(np.unique(b)) == {0, 255}
    assert np.all(b[0] == 0) and np.all(b[1] == 255)


def test_otsu_constant_image():
    img = np.full((5, 5), 77, dtype=np.uint8)
    assert imageops.otsu_threshold(img) == 77


def test_histogram_stats_shapes(rng):
    img = random_images(1, 12, seed=2)[0]
    stats = imageops.histogram_stats(img)
    for field in (stats.omega0, stats.omega1, stats.mu0, stats.mu1, stats.sigma_b2):
        assert field.shape == (256,)
    assert np.allclose(stats.omega0 + stats.omega1, 1.0)
    assert np.all(stats.sigma_b2 >= 0)


def test_binarize_threshold_semantics():
    img = np.array([[0, 100, 101, 255]], dtype=np.uint8)
    b = imageops.binarize(img, 100)
    # strictly-greater pixels become foreground
    assert list(b[0]) == [0, 0, 255, 255]


def test_round_half_up():
    x = np.array([0.4, 0.5, 1.5, 2.49, -3.0, 300.0])
    out = imageops.round_half_up_u8(x)
    assert out.dtype == np.uint8
    assert list(out) == [0, 1, 2, 2, 0, 255]


def test_resize_identity():
    img = random_images(1, 9, seed=8)[0]
    assert np.array_equal(imageops.resize(img, 9, 9), img)


def test_resize_constant_preserved():
    img = np.full((7, 7), 42, dtype=np.uint8)
    out = imageops.resize(img, 13, 5)
    assert out.shape == (5, 13)
    assert np.all(out == 42)


def test_resize_corners_align():
    img = random_images(1, 10, seed=9)[0]
    out = imageops.resize(img, 23, 17)
    assert out[0, 0] == img[0, 0]
    assert out[0, -1] == img[0, -1]
    assert out[-1, 0] == img[-1, 0]
    assert out[-1, -1] == img[-1, -1]


def test_as_gray_rejects_bad_input():
    with pytest.raises(ValueError):
        imageops.otsu_threshold(np.zeros((4, 4), dtype=np.float64))
    with pytest.raises(ValueError):
        imageops.otsu_threshold(np.zeros((4, 4, 3), dtype=np.uint8))
