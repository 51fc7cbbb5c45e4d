import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from statseg.errors import EmptyMaskError
from statseg.grid import (GridShape, Image, Mask, SoftMask, centroid_pixel,
                          foreground_count, summary_stat)

mask_arrays = arrays(np.float64, (5, 7), elements=st.sampled_from([0.0, 1.0]))


def test_grid_shape_validation():
    with pytest.raises(ValueError):
        GridShape(0, 4)
    with pytest.raises(ValueError):
        GridShape(3, -1)


def test_image_range_validation():
    Image(np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        Image(np.full((2, 2), 1.5))
    with pytest.raises(ValueError):
        Image(np.full((2, 2), np.nan))


@pytest.mark.parametrize("cls", [Image, SoftMask])
@pytest.mark.parametrize("bad, message", [
    (np.nan, "must be finite"), (np.inf, "must be finite"), (-np.inf, "must be finite"),
    (-0.1, r"must lie in \[0, 1\]"), (1.1, r"must lie in \[0, 1\]"),
])
def test_unit_interval_messages(cls, bad, message):
    """One bad pixel among legal ones, at either end of the grid; a non-finite value
    is named as such even beside an out-of-range one."""
    for where in (0, -1):
        values = np.full((3, 4), 0.5)
        values.flat[where] = bad
        with pytest.raises(ValueError, match=f"^{cls.__name__} values {message}$"):
            cls(values)
    values = np.array([[-0.1, 1.1], [bad, 0.5]])
    with pytest.raises(ValueError, match=f"^{cls.__name__} values {message}$"):
        cls(values)


def test_mask_binary_validation():
    Mask(np.eye(3))
    with pytest.raises(ValueError):
        Mask(np.full((2, 2), 0.5))


def test_grids_immutable():
    m = Mask(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        m.values[0, 0] = 1.0


def test_summary_stat_examples():
    assert summary_stat(Mask(np.zeros((4, 4)))) == 0.0
    assert summary_stat(Mask(np.ones((4, 4)))) == 1.0
    one = np.zeros((2, 2))
    one[0, 1] = 1.0
    assert summary_stat(Mask(one)) == 0.25


def test_foreground_count_examples():
    assert foreground_count(Mask(np.zeros((3, 3)))) == 0
    assert foreground_count(Mask(np.ones((3, 3)))) == 9
    one = np.zeros((2, 2))
    one[1, 0] = 1.0
    assert foreground_count(Mask(one)) == 1


def test_centroid_pixel_examples():
    single = np.zeros((4, 5))
    single[2, 3] = 1.0
    assert centroid_pixel(Mask(single)) == (2, 3)

    assert centroid_pixel(Mask(np.ones((3, 3)))) == (1, 1)

    two = np.zeros((2, 3))
    two[0, 0] = two[0, 2] = 1.0
    # mean is (0, 1), not foreground; equidistant, tie to smallest column
    assert centroid_pixel(Mask(two)) == (0, 0)


def test_centroid_pixel_empty():
    with pytest.raises(EmptyMaskError):
        centroid_pixel(Mask(np.zeros((3, 3))))


@given(mask_arrays, st.integers(0, 4), st.integers(0, 6))
def test_summary_stat_monotone_in_added_pixel(arr, r, c):
    if arr[r, c] == 1.0:
        return
    before = summary_stat(Mask(arr))
    arr2 = arr.copy()
    arr2[r, c] = 1.0
    after = summary_stat(Mask(arr2))
    assert after - before == pytest.approx(1.0 / arr.size, abs=1e-15)


@given(mask_arrays)
def test_summary_stat_counts_pixels_exactly(arr):
    m = Mask(arr)
    assert summary_stat(m) * arr.size == pytest.approx(foreground_count(m), abs=1e-9)


@given(mask_arrays)
def test_centroid_is_foreground(arr):
    m = Mask(arr)
    if foreground_count(m) == 0:
        return
    r, c = centroid_pixel(m)
    assert arr[r, c] == 1.0


def test_softmask_boundary_values_legal():
    SoftMask(np.array([[0.0, 1.0]]))
