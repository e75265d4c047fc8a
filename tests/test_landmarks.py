import numpy as np
import pytest

from signpipe.landmarks import (
    N_FEATURES,
    N_POINTS,
    LandmarkFrame,
    flatten,
    unflatten,
)


def test_constants():
    assert N_POINTS == 42
    assert N_FEATURES == 126


def test_frame_shape_enforced():
    with pytest.raises(ValueError):
        LandmarkFrame(label="A", points=np.zeros((21, 3)))


def test_flatten_unflatten_roundtrip(rng):
    pts = rng.uniform(0, 1, (N_POINTS, 3))
    frame = LandmarkFrame(label="Q", points=pts)
    v = flatten(frame)
    assert v.shape == (N_FEATURES,)
    back = unflatten(v, "Q")
    assert back.label == "Q"
    assert np.array_equal(back.points, pts)


def test_flatten_order_is_xyz_per_point(rng):
    pts = rng.uniform(0, 1, (N_POINTS, 3))
    v = flatten(LandmarkFrame(label="A", points=pts))
    # point i occupies v[3i:3i+3] as (x, y, z)
    assert np.array_equal(v[:3], pts[0])
    assert np.array_equal(v[3:6], pts[1])


def test_unflatten_wrong_length():
    with pytest.raises(ValueError):
        unflatten(np.zeros(125))

