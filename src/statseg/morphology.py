"""Binary erosion and the erosion-based weak mask simulating partial annotation.

Both functions take one `Mask`, returning a `Mask`, or a boolean (..., H, W)
stack, returning a boolean stack of the same shape. Each grid of a stack
follows the same rules as a single mask, and each erosion step is one set
of array operations over the whole stack.
"""
from __future__ import annotations

import numpy as np

from .errors import EmptyMaskError
from .grid import Mask, centroid_pixel

# the structuring element: each pixel and its four edge neighbors, as (drow, dcol)
CROSS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))


def _foreground(mask) -> np.ndarray:
    """Boolean foreground of a Mask, or the stack as a boolean array (no copy if it is one)."""
    if isinstance(mask, Mask):
        return mask.values == 1.0
    return np.asarray(mask, dtype=bool)


def erode(mask) -> Mask | np.ndarray:
    """Keep a pixel only if its whole CROSS neighborhood is foreground.

    Pixels outside the grid count as background, so regions touching the
    border shrink too.
    """
    fg = _foreground(mask)
    h, w = fg.shape[-2:]
    padded = np.zeros(fg.shape[:-2] + (h + 2, w + 2), dtype=bool)
    padded[..., 1:1 + h, 1:1 + w] = fg
    out = fg.copy()
    for dr, dc in CROSS:
        out &= padded[..., 1 + dr:1 + dr + h, 1 + dc:1 + dc + w]
    return Mask(out) if isinstance(mask, Mask) else out


def weak_mask(gt, coverage: float) -> Mask | np.ndarray:
    """Erode gt until its foreground count drops to ceil(coverage * count).

    Always returns a non-empty subset of gt: if an erosion step would empty
    the mask before reaching the target, the previous iterate is returned,
    and if the very first erosion empties gt, a single centroid pixel is.
    A stack erodes until every grid has stopped by these rules.
    """
    if not 0.0 < coverage <= 1.0:
        raise ValueError(f"coverage must be in (0, 1], got {coverage}")
    fg = _foreground(gt)
    h, w = fg.shape[-2:]
    stack = fg.reshape(-1, h, w).copy()
    n = np.count_nonzero(stack, axis=(1, 2))
    empty = np.flatnonzero(n == 0)
    if empty.size:
        which = "" if fg.ndim == 2 else f" (mask {empty[0]} of the stack is empty)"
        raise EmptyMaskError(f"weak_mask requires a non-empty ground-truth mask{which}")
    target = np.ceil(coverage * n)
    count = n.copy()
    live = np.flatnonzero(count > target)  # grids that still erode
    while live.size:
        nxt = erode(stack[live])
        ncount = np.count_nonzero(nxt, axis=(1, 2))
        for k in live[(ncount == 0) & (count[live] == n[live])]:
            # the first erosion emptied gt: keep its centroid pixel
            r, c = centroid_pixel(stack[k])
            stack[k] = False
            stack[k, r, c] = True
        # an emptying erosion keeps the previous iterate; any other erosion
        # removes at least the grid's topmost pixel (its upper neighbor is
        # background), so the count always falls and the loop ends
        kept = ncount > 0
        live, nxt, ncount = live[kept], nxt[kept], ncount[kept]
        stack[live] = nxt
        count[live] = ncount
        live = live[ncount > target[live]]
    out = stack.reshape(fg.shape)
    return Mask(out) if isinstance(gt, Mask) else out
