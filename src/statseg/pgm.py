"""Minimal binary PGM (P5) reader/writer, maxval <= 255."""
from __future__ import annotations

import numpy as np

from .errors import MalformedFileError


def write_pgm(path, values: np.ndarray, maxval: int = 255):
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValueError("PGM payload must be 2-D")
    if not 1 <= maxval <= 255:
        raise ValueError("maxval must be in [1, 255]")
    if arr.min() < 0 or arr.max() > maxval:
        raise ValueError("pixel values outside [0, maxval]")
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        f.write(arr.astype(np.uint8).tobytes())


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Returns (uint8 array of shape (h, w), maxval)."""
    with open(path, "rb") as f:
        data = f.read()

    # header: magic, width, height, maxval as whitespace-separated tokens,
    # '#' comments allowed, a single whitespace byte before the raster
    tokens = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(data):
            raise MalformedFileError(f"{path}: truncated PGM header")
        ch = data[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    pos += 1  # the single whitespace after maxval

    if tokens[0] != b"P5":
        raise MalformedFileError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise MalformedFileError(f"{path}: non-numeric PGM header") from exc
    if w < 1 or h < 1:
        raise MalformedFileError(f"{path}: bad dimensions {w}x{h}")
    if not 1 <= maxval <= 255:
        raise MalformedFileError(f"{path}: unsupported maxval {maxval}")
    raster = data[pos:pos + w * h]
    if len(raster) != w * h:
        raise MalformedFileError(f"{path}: expected {w * h} pixels, found {len(raster)}")
    arr = np.frombuffer(raster, dtype=np.uint8).reshape(h, w).copy()
    if arr.max() > maxval:
        raise MalformedFileError(f"{path}: pixel value {arr.max()} above maxval {maxval}")
    return arr, maxval
