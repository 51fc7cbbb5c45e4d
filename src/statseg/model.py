"""Toy convolutional encoder-decoder with segmentation and reconstruction heads.

Fixed architecture (C = base_channels):
  encoder: conv3x3(1->C)+ReLU -> conv3x3 stride2 (C->2C)+ReLU
           -> conv3x3 stride2 (2C->4C)+ReLU
  decoder: up2 + conv3x3(4C->2C)+ReLU -> up2 + conv3x3(2C->C)+ReLU, each
           "up2 + conv3x3" run as one 2x2 phase conv of the low-res input
           (sub-pixel convolution), so the upsampled tensor is never built
  heads:   conv1x1(C->1)+sigmoid (segmentation), conv1x1(C->1)+sigmoid (reconstruction),
           each one dot product over the channels of a5's (C, B*H*W) view

Forward/backward are hand-written numpy; gradients are exact (checked
against finite differences in the test suite). ReLU'(0) := 0. Activations
and gradients are (B, C, H, W) views of channel-major (C, B, H, W) memory,
and `_pad` is the one place where a conv input is laid out; every conv
pads by 1.
"""
from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, MalformedFileError, ShapeMismatchError
from .grid import GridShape, Image, SoftMask

_CKPT_MAGIC = b"SSEGCKPT"
_CKPT_VERSION = 1
_MAX_SEED = 2**32 - 1  # save_checkpoint stores the seed as a uint32


@dataclass(frozen=True)
class ModelConfig:
    input_size: GridShape
    base_channels: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.input_size.height % 4 != 0 or self.input_size.width % 4 != 0:
            raise InvalidConfigError("input height and width must be divisible by 4")
        if self.base_channels < 1:
            raise InvalidConfigError("base_channels must be positive")
        if not 0 <= self.seed <= _MAX_SEED:
            raise InvalidConfigError(
                f"model seed must be in [0, {_MAX_SEED}], got {self.seed}")


@functools.lru_cache(maxsize=None)
def param_shapes(base_channels: int) -> tuple:
    c = base_channels
    return (
        ("enc1.w", (c, 1, 3, 3)), ("enc1.b", (c,)),
        ("enc2.w", (2 * c, c, 3, 3)), ("enc2.b", (2 * c,)),
        ("enc3.w", (4 * c, 2 * c, 3, 3)), ("enc3.b", (4 * c,)),
        ("dec1.w", (2 * c, 4 * c, 3, 3)), ("dec1.b", (2 * c,)),
        ("dec2.w", (c, 2 * c, 3, 3)), ("dec2.b", (c,)),
        ("seg.w", (1, c, 1, 1)), ("seg.b", (1,)),
        ("rec.w", (1, c, 1, 1)), ("rec.b", (1,)),
    )


@functools.lru_cache(maxsize=None)
def _param_layout(base_channels: int) -> tuple:
    out = []
    off = 0
    for name, shape in param_shapes(base_channels):
        size = 1
        for s in shape:
            size *= s
        out.append((name, shape, off, size))
        off += size
    return tuple(out), off


class ModelParams:
    """One flat float64 vector, with a named view into it for each tensor."""

    __slots__ = ("config", "flat", "tensors")

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        """Takes ownership of `flat`: the views alias it, nothing is copied."""
        layout, total = _param_layout(config.base_channels)
        if flat.dtype != np.float64 or flat.shape != (total,):
            raise ValueError(f"expected a flat float64 vector of {total} entries, "
                             f"got {flat.dtype} {flat.shape}")
        if not np.isfinite(flat).all():
            raise ValueError("parameters contain NaN or infinity")
        self.config = config
        self.flat = flat
        self.tensors = {name: flat[off:off + size].reshape(shape)
                        for name, shape, off, size in layout}

    def flatten(self) -> np.ndarray:
        return self.flat.copy()

    @classmethod
    def from_flat(cls, config: ModelConfig, vec: np.ndarray) -> "ModelParams":
        return cls(config, np.array(vec, dtype=np.float64))

    @property
    def n_params(self) -> int:
        return self.flat.size


def init_params(config: ModelConfig) -> ModelParams:
    """He-style init: kernels ~ N(0, 2/fan_in), biases zero, seeded."""
    rng = np.random.default_rng(config.seed)
    layout, total = _param_layout(config.base_channels)
    flat = np.zeros(total)
    for name, shape, off, size in layout:
        if name.endswith(".w"):
            fan_in = int(np.prod(shape[1:]))
            flat[off:off + size] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=size)
    return ModelParams(config, flat)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below, so exp never overflows
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _pad(x, s=1):
    """(B, C, H, W) -> channel-major (C, B, Hq*s, Wq*s), zero-padded by 1, Hq = ceil((H+2)/s)."""
    bsz, c, h, w = x.shape
    out = np.zeros((c, bsz, -(-(h + 2) // s) * s, -(-(w + 2) // s) * s))
    out[:, :, 1:h + 1, 1:w + 1] = x.transpose(1, 0, 2, 3)
    return out


def _conv2d(x, w, b, stride=1):
    bsz, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = _pad(x)
    ho = (h + 2 - kh) // stride + 1
    wo = (wd + 2 - kw) // stride + 1
    # windows (Cin, kh, kw, B, ho, wo): a strided view of xp whose reshape is the im2col
    # copy for one GEMM; the backward's per-tap shifted GEMMs ran 1.5-3.5x slower as a forward.
    # The ndarray constructor over xp's contiguous buffer costs a sixth of as_strided's set-up
    # and, unlike it, raises ValueError if the window does not fit the buffer.
    sc, sb, sh, sw = xp.strides
    win = np.ndarray((cin, kh, kw, bsz, ho, wo), xp.dtype, xp, 0,
                     (sc, sh, sw, sb, stride * sh, stride * sw))
    win.flags.writeable = False
    y = np.dot(w.reshape(cout, -1), win.reshape(cin * kh * kw, -1))
    return np.add(y, b[:, None], out=y).reshape(cout, bsz, ho, wo).transpose(1, 0, 2, 3)


def _conv2d_backward(dy, x, w, stride=1, *, dx=True):
    """Shifted-GEMM backward (Chellapilla, Puri & Simard 2006), no im2col copy.

    The padded input is split into stride**2 phases, each flattened
    channel-major to (Cin, B*Hq*Wq). Output (b, i, j) sits at flat index
    p = (b*Hq + i)*Wq + j of the same grid, and kernel tap (di, dj) reads
    phase (di % s, dj % s) at p + (di // s)*Wq + dj // s, so every tap is one
    contiguous slice. dy is zero on the grid positions that are not outputs,
    so the windows that wrap across a row or an image add exactly 0.
    dx is a (B, Cin, H, W) view of channel-major memory, or None when the
    caller passes dx=False and only wants dw and db.
    """
    bsz, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    s = stride
    ho, wo = dy.shape[2], dy.shape[3]
    xp = _pad(x, s)
    hq, wq = xp.shape[2] // s, xp.shape[3] // s
    # (s, s, Cin, B*Hq*Wq); already contiguous, so no copy, when s == 1
    phases = np.ascontiguousarray(
        xp.reshape(cin, bsz, hq, s, wq, s).transpose(3, 5, 0, 1, 2, 4)
    ).reshape(s, s, cin, bsz * hq * wq)
    g = np.zeros((cout, bsz, hq, wq))
    g[:, :, :ho, :wo] = dy.transpose(1, 0, 2, 3)
    n = bsz * hq * wq - ((kh - 1) // s) * wq - (kw - 1) // s
    g = g.reshape(cout, -1)[:, :n]
    dw = np.empty_like(w)
    if dx:
        # per-tap (Cin, Cout) blocks must be contiguous for matmul to use BLAS
        wt = np.ascontiguousarray(w.transpose(2, 3, 1, 0))
        dphases = np.zeros_like(phases)
        tap = np.empty((cin, n))  # reused: a fresh buffer per tap costs page faults
    for di in range(kh):
        for dj in range(kw):
            off = (di // s) * wq + dj // s
            a, b = di % s, dj % s
            dw[:, :, di, dj] = g @ phases[a, b, :, off:off + n].T
            if dx:
                dphases[a, b, :, off:off + n] += np.matmul(wt[di, dj], g, out=tap)
    db = g.sum(axis=1)
    if not dx:
        return None, dw, db
    dxp = dphases.reshape(s, s, cin, bsz, hq, wq).transpose(2, 3, 4, 0, 5, 1)
    dxp = dxp.reshape(cin, bsz, hq * s, wq * s)
    return dxp[:, :, 1:h + 1, 1:wd + 1].transpose(1, 0, 2, 3), dw, db


def _upsample2(x):
    return x.repeat(2, axis=2).repeat(2, axis=3)


# A 3x3 conv over a nearest 2x upsampling, output row 2r + a, reads low-res
# rows r - 1 + a and r + a (the 2x2 phase conv's two taps) with these sums of
# kernel rows: phase 0 takes w0 and w1 + w2, phase 1 takes w0 + w1 and w2.
# Columns fold the same way, so (a, b, ki, kj) x (di, dj) is one 0/1 matrix.
_ROW_FOLD = np.array([[[1, 0, 0], [0, 1, 1]],
                      [[1, 1, 0], [0, 0, 1]]], dtype=np.float64)
_PHASE_FOLD = np.einsum("akd,ble->abklde", _ROW_FOLD, _ROW_FOLD).reshape(16, 9)
_PHASE_FOLD_T = np.ascontiguousarray(_PHASE_FOLD.T)  # built once, not a .T view per call
_PHASES = ((0, 0), (0, 1), (1, 0), (1, 1))


def _phase_kernels(w):
    """(Cout, Cin, 3, 3) -> (4*Cout, Cin, 2, 2), phase-major."""
    cout, cin = w.shape[:2]
    w4 = np.dot(w.reshape(cout * cin, 9), _PHASE_FOLD_T).reshape(cout, cin, 4, 2, 2)
    return w4.transpose(2, 0, 1, 3, 4).reshape(4 * cout, cin, 2, 2)


def _upconv(x, w, b):
    """_conv2d(_upsample2(x), w, b) as sub-pixel convolution (Shi et al. 2016).

    One 2x2 conv of the low-res x makes all four output phases as a
    (B, 4*Cout, h+1, w+1) grid; output pixel (2r + a, 2c + b) is phase
    (a, b) at (r + a, c + b). The upsampled input is never built.
    """
    bsz, _, h, wd = x.shape
    cout = w.shape[0]
    y4 = _conv2d(x, _phase_kernels(w), np.concatenate((b, b, b, b)))
    y = np.empty((cout, bsz, 2 * h, 2 * wd)).transpose(1, 0, 2, 3)
    for p, (a, c) in enumerate(_PHASES):
        y[:, :, a::2, c::2] = y4[:, p * cout:(p + 1) * cout, a:a + h, c:c + wd]
    return y


def _upconv_backward(dy, x, w):
    """dx, dw, db of _upconv: the forward's phase scatter and weight fold, reversed."""
    bsz, cin, h, wd = x.shape
    cout = w.shape[0]
    g4 = np.zeros((4 * cout, bsz, h + 1, wd + 1)).transpose(1, 0, 2, 3)
    for p, (a, c) in enumerate(_PHASES):
        g4[:, p * cout:(p + 1) * cout, a:a + h, c:c + wd] = dy[:, :, a::2, c::2]
    dx, dw4, db4 = _conv2d_backward(g4, x, _phase_kernels(w))
    dw4 = dw4.reshape(4, cout, cin, 4).transpose(1, 2, 0, 3).reshape(cout * cin, 16)
    return dx, (dw4 @ _PHASE_FOLD).reshape(w.shape), db4.reshape(4, cout).sum(axis=0)


@dataclass
class ForwardTrace:
    """One image's outputs."""

    pred: SoftMask
    recon: Image


def _forward_batch(params: ModelParams, x: np.ndarray):
    """x: (B, 1, H, W) -> (pred, recon, cache), each output (B, 1, H, W)."""
    t = params.tensors
    a1 = np.maximum(_conv2d(x, t["enc1.w"], t["enc1.b"]), 0.0)
    a2 = np.maximum(_conv2d(a1, t["enc2.w"], t["enc2.b"], stride=2), 0.0)
    a3 = np.maximum(_conv2d(a2, t["enc3.w"], t["enc3.b"], stride=2), 0.0)
    a4 = np.maximum(_upconv(a3, t["dec1.w"], t["dec1.b"]), 0.0)
    a5 = np.maximum(_upconv(a4, t["dec2.w"], t["dec2.b"]), 0.0)
    a5m = a5.transpose(1, 0, 2, 3).reshape(a5.shape[1], -1)  # (C, B*H*W), a view
    pred = _sigmoid(np.dot(t["seg.w"].ravel(), a5m) + t["seg.b"]).reshape(x.shape)
    recon = _sigmoid(np.dot(t["rec.w"].ravel(), a5m) + t["rec.b"]).reshape(x.shape)
    cache = {"x": x, "a1": a1, "a2": a2, "a3": a3, "a4": a4, "a5": a5,
             "pred": pred, "recon": recon}
    return pred, recon, cache


def _backward_batch(params: ModelParams, cache: dict,
                    d_pred: np.ndarray, d_recon: np.ndarray) -> np.ndarray:
    """Gradient of every parameter as one flat float64 vector, laid out like params.flat."""
    t = params.tensors
    g = {}
    a5c = cache["a5"].transpose(1, 0, 2, 3)  # (C, B, H, W), contiguous
    a5m = a5c.reshape(len(a5c), -1)
    dz_seg = (d_pred * cache["pred"] * (1.0 - cache["pred"])).ravel()
    dz_rec = (d_recon * cache["recon"] * (1.0 - cache["recon"])).ravel()
    g["seg.w"], g["seg.b"] = np.dot(a5m, dz_seg), dz_seg.sum()
    g["rec.w"], g["rec.b"] = np.dot(a5m, dz_rec), dz_rec.sum()
    da5 = t["seg.w"].reshape(-1, 1) * dz_seg + t["rec.w"].reshape(-1, 1) * dz_rec
    dz5 = (da5 * (a5m > 0.0)).reshape(a5c.shape).transpose(1, 0, 2, 3)
    da4, g["dec2.w"], g["dec2.b"] = _upconv_backward(dz5, cache["a4"], t["dec2.w"])
    dz4 = da4 * (cache["a4"] > 0.0)
    da3, g["dec1.w"], g["dec1.b"] = _upconv_backward(dz4, cache["a3"], t["dec1.w"])
    dz3 = da3 * (cache["a3"] > 0.0)
    da2, g["enc3.w"], g["enc3.b"] = _conv2d_backward(dz3, cache["a2"], t["enc3.w"], stride=2)
    dz2 = da2 * (cache["a2"] > 0.0)
    da1, g["enc2.w"], g["enc2.b"] = _conv2d_backward(dz2, cache["a1"], t["enc2.w"], stride=2)
    dz1 = da1 * (cache["a1"] > 0.0)
    _, g["enc1.w"], g["enc1.b"] = _conv2d_backward(dz1, cache["x"], t["enc1.w"], dx=False)
    return np.concatenate([g[name].ravel()
                           for name, _ in param_shapes(params.config.base_channels)])


def forward(params: ModelParams, image: Image) -> ForwardTrace:
    """One-image inference; training runs _forward_batch and _backward_batch."""
    size = params.config.input_size
    if image.shape != size:
        raise ShapeMismatchError(
            f"image shape {image.shape} does not match model input {size}")
    x = image.values[None, None, :, :]
    pred, recon, _ = _forward_batch(params, x)
    return ForwardTrace(pred=SoftMask(pred[0, 0]), recon=Image(recon[0, 0]))


def save_checkpoint(params: ModelParams, path):
    cfg = params.config
    header = struct.pack("<8sIIIIIQ", _CKPT_MAGIC, _CKPT_VERSION,
                         cfg.input_size.height, cfg.input_size.width,
                         cfg.base_channels, cfg.seed, params.n_params)
    with open(path, "wb") as f:
        f.write(header)
        f.write(params.flat.astype("<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as f:
        raw = f.read()
    hsize = struct.calcsize("<8sIIIIIQ")
    if len(raw) < hsize:
        raise MalformedFileError(f"{path}: truncated checkpoint")
    magic, version, h, w, c, seed, n = struct.unpack("<8sIIIIIQ", raw[:hsize])
    if magic != _CKPT_MAGIC:
        raise MalformedFileError(f"{path}: bad magic {magic!r}")
    if version != _CKPT_VERSION:
        raise MalformedFileError(f"{path}: unsupported checkpoint version {version}")
    if len(raw) - hsize != 8 * n:
        raise MalformedFileError(
            f"{path}: expected {n} parameters ({8 * n} bytes), found {len(raw) - hsize} bytes")
    flat = np.frombuffer(raw[hsize:], dtype="<f8")
    try:
        config = ModelConfig(GridShape(h, w), base_channels=c, seed=seed)
        return ModelParams.from_flat(config, flat)
    except (InvalidConfigError, ValueError) as exc:
        raise MalformedFileError(f"{path}: {exc}") from exc
