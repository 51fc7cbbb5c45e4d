import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from statseg.data import generate_synthetic, standard_benchmark_config
from statseg.errors import EmptyMaskError
from statseg.grid import Mask, centroid_pixel, foreground_count
from statseg.morphology import CROSS, erode, weak_mask

mask_arrays = arrays(np.float64, (8, 8), elements=st.sampled_from([0.0, 1.0]))
coverages = st.floats(0.01, 1.0, allow_nan=False)


def square_mask(grid=9, side=7):
    arr = np.zeros((grid, grid))
    off = (grid - side) // 2
    arr[off:off + side, off:off + side] = 1.0
    return Mask(arr)


def test_erode_all_ones_cross():
    out = erode(Mask(np.ones((3, 3))))
    expected = np.zeros((3, 3))
    expected[1, 1] = 1.0
    assert np.array_equal(out.values, expected)


def test_erode_all_zeros():
    out = erode(Mask(np.zeros((4, 4))))
    assert foreground_count(out) == 0


def test_erode_single_pixel_vanishes():
    arr = np.zeros((5, 5))
    arr[2, 2] = 1.0
    assert foreground_count(erode(Mask(arr))) == 0


@given(mask_arrays)
def test_erode_anti_extensive(arr):
    out = erode(Mask(arr))
    assert np.all(out.values <= arr)


def test_weak_mask_singleton_fallback():
    arr = np.zeros((5, 5))
    arr[1, 3] = 1.0
    gt = Mask(arr)
    out = weak_mask(gt, 0.5)
    assert np.array_equal(out.values, arr)
    assert centroid_pixel(out) == (1, 3)


def test_weak_mask_full_coverage_identity():
    gt = square_mask()
    out = weak_mask(gt, 1.0)
    assert np.array_equal(out.values, gt.values)


def test_weak_mask_square_example():
    # 7x7 square erodes 49 -> 25 -> 9 -> 1; target ceil(0.08*49) = 4
    gt = square_mask()
    out = weak_mask(gt, 0.08)
    expected = np.zeros((9, 9))
    expected[4, 4] = 1.0
    assert np.array_equal(out.values, expected)


def test_weak_mask_empty_gt_rejected():
    with pytest.raises(EmptyMaskError):
        weak_mask(Mask(np.zeros((4, 4))), 0.5)


def test_weak_mask_bad_coverage_rejected():
    gt = square_mask()
    for coverage in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            weak_mask(gt, coverage)


@given(mask_arrays, coverages)
def test_weak_mask_subset_and_nonempty(arr, coverage):
    if not arr.any():
        return
    gt = Mask(arr)
    out = weak_mask(gt, coverage)
    assert foreground_count(out) >= 1
    assert np.all(out.values <= arr)


@given(mask_arrays, coverages, coverages)
def test_weak_mask_monotone_in_coverage(arr, c1, c2):
    if not arr.any():
        return
    lo, hi = min(c1, c2), max(c1, c2)
    gt = Mask(arr)
    assert (foreground_count(weak_mask(gt, lo))
            <= foreground_count(weak_mask(gt, hi)))


@given(mask_arrays)
def test_weak_mask_identity_at_full_coverage(arr):
    if not arr.any():
        return
    gt = Mask(arr)
    assert np.array_equal(weak_mask(gt, 1.0).values, arr)


# The per-grid algorithm as it stood before erosion took stacks: float
# products of shifted copies and one Python loop per grid. The stacked code
# must reproduce it exactly.

def _reference_erode(arr):
    h, w = arr.shape
    out = np.ones_like(arr)
    for dr, dc in CROSS:
        shifted = np.zeros_like(arr)
        r0, r1 = max(0, -dr), min(h, h - dr)
        c0, c1 = max(0, -dc), min(w, w - dc)
        if r0 < r1 and c0 < c1:
            shifted[r0:r1, c0:c1] = arr[r0 + dr:r1 + dr, c0 + dc:c1 + dc]
        out = out * shifted
    return out


def _reference_weak_mask(arr, coverage):
    n = int(np.count_nonzero(arr == 1.0))
    target = math.ceil(coverage * n)
    current, count = arr, n
    while count > target:
        nxt = _reference_erode(current)
        ncount = int(np.count_nonzero(nxt == 1.0))
        if ncount == 0:
            if count == n:
                single = np.zeros_like(arr)
                single[centroid_pixel(arr)] = 1.0
                return single
            return current
        if ncount == count:
            return current
        current, count = nxt, ncount
    return current


@st.composite
def mask_stacks(draw):
    """(k, h, w) bool stacks of non-empty grids, some of them a single pixel."""
    k, h, w = draw(st.integers(1, 5)), draw(st.integers(1, 9)), draw(st.integers(1, 9))
    stack = draw(arrays(bool, (k, h, w)))
    for i in range(k):
        if not stack[i].any() or draw(st.booleans()):
            stack[i] = False
            stack[i, draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = True
    return stack


@settings(max_examples=300, deadline=None)
@given(mask_stacks(), st.one_of(coverages, st.just(1.0)))
def test_stacked_calls_equal_per_grid_calls(stack, coverage):
    weak = weak_mask(stack, coverage)
    eroded = erode(stack)
    assert weak.dtype == bool and weak.shape == stack.shape
    assert eroded.dtype == bool and eroded.shape == stack.shape
    for grid, w, e in zip(stack.astype(np.float64), weak, eroded):
        expected = _reference_weak_mask(grid, coverage)
        assert np.array_equal(weak_mask(Mask(grid), coverage).values, expected)
        assert np.array_equal(w, expected == 1.0)
        assert np.array_equal(erode(Mask(grid)).values, _reference_erode(grid))
        assert np.array_equal(e, _reference_erode(grid) == 1.0)
    # leading axes beyond one are kept as they are
    assert np.array_equal(weak_mask(stack[None], coverage), weak[None])


@pytest.mark.parametrize("coverage", [0.04, 0.08, 0.12])
def test_stacked_weak_masks_of_the_benchmark_dataset(coverage):
    samples = generate_synthetic(standard_benchmark_config(seed=2))
    weak = weak_mask(np.stack([s.gt.values == 1.0 for s in samples]), coverage)
    for s, w in zip(samples, weak):
        assert np.array_equal(w, _reference_weak_mask(s.gt.values, coverage) == 1.0)
