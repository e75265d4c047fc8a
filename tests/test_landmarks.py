import numpy as np
import pytest

from signpipe import io
from signpipe.landmarks import (
    N_FEATURES,
    N_POINTS,
    LandmarkFrame,
    unflatten,
)


def test_constants():
    assert N_POINTS == 42
    assert N_FEATURES == 126


def test_frame_shape_enforced():
    with pytest.raises(ValueError):
        unflatten(np.zeros(21 * 3), "A")
    with pytest.raises(ValueError):
        unflatten(np.zeros((N_POINTS, 3)), "A")


def test_unflatten_keeps_row_and_label(rng):
    v = rng.uniform(0, 1, N_FEATURES)
    frame = unflatten(v, "Q")
    assert isinstance(frame, LandmarkFrame)
    assert frame.label == "Q"
    assert frame.values.shape == (N_FEATURES,) and frame.values.dtype == np.float64
    assert np.array_equal(frame.values, v)


def test_row_order_is_xyz_per_point(rng, tmp_path):
    # point i occupies values[3i:3i+3] as (x, y, z), the CSV's column order
    pts = rng.uniform(0, 1, (N_POINTS, 3))
    path = tmp_path / "lm.csv"
    io.write_landmark_csv(path, [unflatten(pts.reshape(-1), "A")])
    header, row = path.read_text(encoding="ascii").splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    for i in (0, 1, N_POINTS - 1):
        for axis, value in zip("xyz", pts[i]):
            assert float(cells[f"{axis}{i + 1}"]) == value


def test_unflatten_wrong_length():
    with pytest.raises(ValueError):
        unflatten(np.zeros(125), "A")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_unflatten_rejects_non_finite(bad):
    values = np.zeros(N_FEATURES)
    values[7] = bad
    with pytest.raises(ValueError, match="finite"):
        unflatten(values, "A")
