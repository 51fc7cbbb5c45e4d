"""The four training losses plus the fully supervised baseline.

Every loss takes (..., H, W) grids and returns (value per grid, gradient
grid w.r.t. the predicted quantity). Values are MEANS over each grid's pixels
so magnitudes are comparable across image sizes. Logs are clamped at EPS = 1e-7.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonBinaryWeakMaskError, ShapeMismatchError
from .grid import as_array

EPS = 1e-7


@dataclass(frozen=True)
class LossWeights:
    w_c: float = 1.0
    w_r: float = 1.0
    w_s: float = 1.0
    w_ws: float = 1.0
    w_full: float = 0.0

    def __post_init__(self):
        for name in ("w_c", "w_r", "w_s", "w_ws", "w_full"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class LossReport:
    """Per-term values (0.0 for inactive terms) and the weighted total, per grid."""

    l_c: float = 0.0
    l_r: float = 0.0
    l_s: float = 0.0
    l_ws: float = 0.0
    l_full: float = 0.0
    total: float = 0.0


def _check_shapes(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise ShapeMismatchError(f"grid shapes differ: {a.shape} vs {b.shape}")


def _n_pixels(a: np.ndarray) -> int:
    return a.shape[-2] * a.shape[-1]


def confidence_loss(pred) -> tuple[np.ndarray, np.ndarray]:
    """0.25 - mean((0.5 - pred)^2); maximal when every pixel sits at 0.5."""
    p = as_array(pred)
    loss = 0.25 - np.mean((0.5 - p) ** 2, axis=(-2, -1))
    grad = 2.0 * (0.5 - p) / _n_pixels(p)
    return loss, grad


def reconstruction_loss(image, recon) -> tuple[np.ndarray, np.ndarray]:
    """Mean absolute error between the input image and its reconstruction."""
    x = as_array(image)
    y = as_array(recon)
    _check_shapes(x, y)
    loss = np.mean(np.abs(x - y), axis=(-2, -1))
    grad = np.sign(y - x) / _n_pixels(x)
    return loss, grad


def stats_loss(gt, pred) -> tuple[np.ndarray, np.ndarray]:
    """L1 distance between the ground-truth ROI fraction and the predicted one."""
    g = as_array(gt)
    p = as_array(pred)
    _check_shapes(g, p)
    m_gt = g.mean(axis=(-2, -1))
    m_pred = p.mean(axis=(-2, -1))
    loss = np.abs(m_gt - m_pred)
    grad = np.sign(m_pred - m_gt)[..., None, None] / _n_pixels(p)
    return loss, np.broadcast_to(grad, p.shape).copy()


def weak_supervision_loss(weak, pred) -> tuple[np.ndarray, np.ndarray]:
    """Masked cross-entropy over the weak foreground pixels only.

    Pixels with weak == 0 contribute exactly 0 (the product weak*pred is
    exactly 0 there, so -log(1 - 0) = 0 with no clamping), i.e. the loss
    carries positive signal only.
    """
    w = as_array(weak)
    p = as_array(pred)
    _check_shapes(w, p)
    if not np.all((w == 0.0) | (w == 1.0)):
        raise NonBinaryWeakMaskError("weak mask must be binary")
    n = _n_pixels(p)
    pc = np.clip(p, EPS, 1.0 - EPS)
    on = w == 1.0
    loss = np.where(on, -np.log(pc), 0.0).mean(axis=(-2, -1))
    active = on & (p > EPS) & (p < 1.0 - EPS)
    grad = np.where(active, -1.0 / (pc * n), 0.0)
    return loss, grad


def full_supervision_loss(gt, pred) -> tuple[np.ndarray, np.ndarray]:
    """Standard binary cross-entropy against the complete ground-truth mask."""
    g = as_array(gt)
    p = as_array(pred)
    _check_shapes(g, p)
    n = _n_pixels(p)
    pc = np.clip(p, EPS, 1.0 - EPS)
    loss = np.mean(-(g * np.log(pc) + (1.0 - g) * np.log(1.0 - pc)), axis=(-2, -1))
    inside = (p > EPS) & (p < 1.0 - EPS)
    grad = np.where(inside, (-g / pc + (1.0 - g) / (1.0 - pc)) / n, 0.0)
    return loss, grad


def total_loss(image, gt, weak, pred, recon,
               weights: LossWeights = LossWeights()
               ) -> tuple[LossReport, np.ndarray, np.ndarray]:
    """Weighted sum of the active terms.

    Returns (report, d_pred, d_recon). Terms with weight 0 are skipped, read
    0.0 for every grid, and their inputs may be None.
    """
    p = as_array(pred)
    d_pred = np.zeros_like(p)
    d_recon = np.zeros_like(p)
    # [()] turns the 0-d zeros of a single grid into an np.float64
    l_c = l_r = l_s = l_ws = l_full = np.zeros(p.shape[:-2])[()]
    if weights.w_c > 0:
        l_c, g = confidence_loss(p)
        d_pred += weights.w_c * g
    if weights.w_r > 0:
        l_r, g = reconstruction_loss(image, recon)
        d_recon += weights.w_r * g
    if weights.w_s > 0:
        l_s, g = stats_loss(gt, p)
        d_pred += weights.w_s * g
    if weights.w_ws > 0:
        l_ws, g = weak_supervision_loss(weak, p)
        d_pred += weights.w_ws * g
    if weights.w_full > 0:
        l_full, g = full_supervision_loss(gt, p)
        d_pred += weights.w_full * g
    total = (weights.w_c * l_c + weights.w_r * l_r + weights.w_s * l_s
             + weights.w_ws * l_ws + weights.w_full * l_full)
    report = LossReport(l_c=l_c, l_r=l_r, l_s=l_s, l_ws=l_ws, l_full=l_full, total=total)
    return report, d_pred, d_recon
