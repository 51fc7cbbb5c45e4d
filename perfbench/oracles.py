"""Checks computed apart from statseg: nested-loop network, IoU recount, PGM reader.

Nothing here imports statseg. Each oracle restates the documented
behaviour from first principles so that a fault shared by the program and
its own tests still shows up.
"""
from __future__ import annotations

import math

import numpy as np

STEP = 1e-4          # central-difference step, as in acceptance criterion 2
GRAD_TOL = 1e-3      # max relative error between analytic and numeric gradients
REF_TOL = 1e-10      # max |reference - program| on forward outputs (float64)


def param_count(c: int) -> int:
    """Parameters of the fixed encoder-decoder with base width c."""
    convs = [(1, c, 3), (c, 2 * c, 3), (2 * c, 4 * c, 3), (4 * c, 2 * c, 3),
             (2 * c, c, 3), (c, 1, 1), (c, 1, 1)]
    return sum(cin * cout * k * k + cout for cin, cout, k in convs)


def conv_gflop_per_step(batch: int, h: int, w: int, c: int) -> float:
    """Conv multiply-adds x2 of one training step: forward, then dW and dX."""
    layers = [(1, c, 3, h, w), (c, 2 * c, 3, h // 2, w // 2),
              (2 * c, 4 * c, 3, h // 4, w // 4), (4 * c, 2 * c, 3, h // 2, w // 2),
              (2 * c, c, 3, h, w), (c, 1, 1, h, w), (c, 1, 1, h, w)]
    fwd = sum(2.0 * batch * cin * cout * k * k * ho * wo
              for cin, cout, k, ho, wo in layers)
    return 3.0 * fwd / 1e9


# ------------------------------------------------------------ reference network

def _conv(x, w, b, stride, pad):
    """x[cin][h][w], w[cout][cin][k][k] as nested lists -> [cout][ho][wo]."""
    cin, h, wd = len(x), len(x[0]), len(x[0][0])
    cout, k = len(w), len(w[0][0])
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    out = []
    for o in range(cout):
        plane = []
        for i in range(ho):
            row = []
            for j in range(wo):
                s = b[o]
                for c in range(cin):
                    xc, wc = x[c], w[o][c]
                    for di in range(k):
                        r = i * stride + di - pad
                        if 0 <= r < h:
                            xr, wr = xc[r], wc[di]
                            for dj in range(k):
                                q = j * stride + dj - pad
                                if 0 <= q < wd:
                                    s += wr[dj] * xr[q]
                row.append(s)
            plane.append(row)
        out.append(plane)
    return out


def _relu(z):
    return [[[v if v > 0.0 else 0.0 for v in row] for row in plane] for plane in z]


def _up2(x):
    return [[[row[j // 2] for j in range(2 * len(row))]
             for row in plane for _ in range(2)] for plane in x]


def _sigmoid(v):
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def reference_forward(tensors: dict, image: np.ndarray):
    """(pred, recon, smallest |ReLU pre-activation|) for one image, by loops."""
    t = {name: np.asarray(v).tolist() for name, v in tensors.items()}
    x = [np.asarray(image, dtype=np.float64).tolist()]
    smallest = math.inf
    acts = x
    for name, stride, up in (("enc1", 1, False), ("enc2", 2, False), ("enc3", 2, False),
                             ("dec1", 1, True), ("dec2", 1, True)):
        inp = _up2(acts) if up else acts
        z = _conv(inp, t[f"{name}.w"], t[f"{name}.b"], stride, 1)
        smallest = min(smallest, min(abs(v) for plane in z for row in plane for v in row))
        acts = _relu(z)
    heads = []
    for name in ("seg", "rec"):
        z = _conv(acts, t[f"{name}.w"], t[f"{name}.b"], 1, 0)[0]
        heads.append(np.array([[_sigmoid(v) for v in row] for row in z]))
    return heads[0], heads[1], smallest


def reference_mismatch(tensors: dict, image, pred, recon) -> float:
    """Largest |reference - program| over both heads."""
    ref_pred, ref_recon, _ = reference_forward(tensors, image)
    return max(float(np.abs(ref_pred - pred).max()),
               float(np.abs(ref_recon - recon).max()))


# ------------------------------------------------------------ gradients

def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())


# ------------------------------------------------------------ IoU

def recount_iou(pred: np.ndarray, gt: np.ndarray, threshold: float = 0.5) -> float:
    """|P & G| / |P | G| with P = pred >= threshold; empty vs empty is 1."""
    p = np.asarray(pred) >= threshold
    g = np.asarray(gt) == 1.0
    union = int(np.count_nonzero(p | g))
    if union == 0:
        return 1.0
    return int(np.count_nonzero(p & g)) / union


def iou_mismatches(preds: list, gts: list, program_ious) -> list:
    """Indices where the program's IoU differs from the recount."""
    return [i for i, (p, g, v) in enumerate(zip(preds, gts, program_ious))
            if abs(recount_iou(p, g) - v) > 1e-12]


def shifted_by_one_pixel(pred: np.ndarray) -> np.ndarray:
    return np.roll(pred, 1, axis=1)


# ------------------------------------------------------------ PGM

def read_p5(path) -> np.ndarray:
    """Binary PGM as a uint8 array; header tokens separated by whitespace."""
    data = open(path, "rb").read()
    tokens, pos = [], 0
    while len(tokens) < 4:
        while data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            pos = data.index(b"\n", pos) + 1
            continue
        end = pos
        while not data[end:end + 1].isspace():
            end += 1
        tokens.append(data[pos:end])
        pos = end
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    w, h = int(tokens[1]), int(tokens[2])
    raster = data[pos + 1:pos + 1 + w * h]
    if len(raster) != w * h:
        raise ValueError(f"{path}: truncated raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w)
