"""Minimal binary PGM (P5) reader/writer, maxval <= 255."""
from __future__ import annotations

import re

import numpy as np

from .errors import MalformedFileError

# "P5", width, height and maxval, with whitespace or '#' comments (to the end of the line)
# where a token may start, then one whitespace byte. No number takes more digits than
# int() converts by default (4300), so a longer run is a malformed header.
_GAP = rb"(?:\s|#[^\n]*\n)*"
_HEADER = re.compile(_GAP + rb"P5" + (rb"\s" + _GAP + rb"(\d{1,4300})") * 3 + rb"\s")


def write_pgm(path, values: np.ndarray):
    """Write a 2-D array of values in [0, 255] with maxval 255."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValueError("PGM payload must be 2-D")
    if arr.min() < 0 or arr.max() > 255:
        raise ValueError("pixel values outside [0, 255]")
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(arr.astype(np.uint8).tobytes())


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Returns (uint8 array of shape (h, w), maxval)."""
    with open(path, "rb") as f:
        data = f.read()
    header = _HEADER.match(data)
    if header is None:
        raise MalformedFileError(f"{path}: not a binary PGM header (P5 width height maxval)")
    w, h, maxval = map(int, header.groups())
    if w < 1 or h < 1:
        raise MalformedFileError(f"{path}: bad dimensions {w}x{h}")
    if not 1 <= maxval <= 255:
        raise MalformedFileError(f"{path}: unsupported maxval {maxval}")
    raster = data[header.end():header.end() + w * h]
    if len(raster) != w * h:
        raise MalformedFileError(f"{path}: expected {w * h} pixels, found {len(raster)}")
    arr = np.frombuffer(raster, dtype=np.uint8).reshape(h, w).copy()
    if arr.max() > maxval:
        raise MalformedFileError(f"{path}: pixel value {arr.max()} above maxval {maxval}")
    return arr, maxval
