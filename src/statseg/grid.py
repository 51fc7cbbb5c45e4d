"""Dense grid types (image, binary mask, soft mask) and the ROI summary statistic.

Grids are row-major with (row, col) indexing and origin at the top-left.
All types are immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMaskError


@dataclass(frozen=True)
class GridShape:
    height: int
    width: int

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError(f"grid shape must be at least 1x1, got {self.height}x{self.width}")

    @property
    def n_pixels(self) -> int:
        return self.height * self.width


class Grid:
    """Base of the grid types: a non-empty 2-D float64 array, read-only once set."""

    __slots__ = ("values",)

    def _set(self, values, check):
        arr = np.array(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D grid, got ndim={arr.ndim}")
        if arr.size == 0:
            raise ValueError("grid must be non-empty")
        check(arr, type(self).__name__)
        arr.flags.writeable = False
        self.values = arr

    @property
    def shape(self) -> GridShape:
        return GridShape(*self.values.shape)


def _in_unit_interval(arr: np.ndarray, name: str):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} values must be finite")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError(f"{name} values must lie in [0, 1]")


def _binary(arr: np.ndarray, name: str):
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValueError(f"{name} values must be exactly 0 or 1")


class Image(Grid):
    """Grayscale intensities in [0, 1]."""

    __slots__ = ()

    def __init__(self, values):
        self._set(values, _in_unit_interval)


class Mask(Grid):
    """Binary grid; every value exactly 0 or 1."""

    __slots__ = ()

    def __init__(self, values):
        self._set(values, _binary)


class SoftMask(Grid):
    """Per-pixel foreground probabilities in [0, 1]."""

    __slots__ = ()

    def __init__(self, values):
        self._set(values, _in_unit_interval)


def as_array(grid) -> np.ndarray:
    """Accept a grid type or a bare array and return the float array."""
    if isinstance(grid, Grid):
        return grid.values
    return np.asarray(grid, dtype=np.float64)


def summary_stat(mask) -> float:
    """Fraction of foreground: mean of the grid values."""
    return float(as_array(mask).mean())


def foreground_count(mask) -> int:
    """Number of pixels equal to 1."""
    return int(np.count_nonzero(as_array(mask) == 1.0))


def centroid_pixel(mask) -> tuple[int, int]:
    """Foreground pixel nearest the foreground centroid.

    Ties broken by smallest row, then smallest column.
    """
    arr = as_array(mask)
    fg = np.argwhere(arr == 1.0)  # already sorted row-major
    if fg.shape[0] == 0:
        raise EmptyMaskError("centroid_pixel requires at least one foreground pixel")
    center = fg.mean(axis=0)
    d2 = ((fg - center) ** 2).sum(axis=1)
    best = d2.min()
    idx = int(np.flatnonzero(d2 <= best + 1e-12)[0])
    return int(fg[idx, 0]), int(fg[idx, 1])
