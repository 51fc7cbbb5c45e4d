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
and gradients are (B, C, H, W) views of channel-major (C, B, H, W) memory.
Every conv pads by 1. `_pad` and `_unpad` move a grid into and out of its one
stride-phase layout, which the strided backward and the decoders' phases share.
Parameters are immutable: a ModelParams is one read-only flat vector, and it
folds the decoders' phase kernels once, so forwards on the same parameters
(batch-1 inference, loss and eval passes) fold nothing.
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
# magic, version, height, width, base_channels, seed, parameter count
_CKPT_HEADER = struct.Struct("<8sIIIIIQ")
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
    """One read-only flat float64 vector, with a named view into it for each tensor,
    and the decoders' phase kernels, folded from it once: every forward and backward
    on these parameters reads them, and no write to `flat` can leave them stale."""

    __slots__ = ("config", "flat", "tensors", "phase_kernels")

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        """Takes ownership of `flat`: the views alias it, nothing is copied, and it
        becomes read-only."""
        layout, total = _param_layout(config.base_channels)
        if flat.dtype != np.float64 or flat.shape != (total,):
            raise ValueError(f"expected a flat float64 vector of {total} entries, "
                             f"got {flat.dtype} {flat.shape}")
        if not np.isfinite(flat).all():
            raise ValueError("parameters contain NaN or infinity")
        flat.flags.writeable = False
        self.config = config
        self.flat = flat
        self.tensors = t = {name: flat[off:off + size].reshape(shape)
                            for name, shape, off, size in layout}
        self.phase_kernels = {name: _phase_kernels(t[name]) for name in ("dec1.w", "dec2.w")}
        for w4 in self.phase_kernels.values():
            w4.flags.writeable = False

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
    """1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below, so exp never overflows.

    Overwrites z with the result: one division, of a numerator that is 1 or e.
    """
    nonneg = z >= 0
    e = np.exp(np.negative(np.abs(z, out=z), out=z), out=z)
    d = e + 1.0
    np.copyto(e, 1.0, where=nonneg)
    return np.divide(e, d, out=e)


@functools.lru_cache(maxsize=None)
def _phase_copies(h, w, s):
    """Index pairs (phase, grid) that move a (C, B, h, w) grid into, or out of, its
    split into stride-s phases, (s, s, C, B, Hq, Wq): phase (a, b) holds pixel (u, v) with
    u % s == a and v % s == b at ((u + 1) // s, (v + 1) // s). One copy per phase."""
    def axis(n):
        for a in range(s):
            i0 = (a + 1) // s
            yield a, slice(a, n, s), slice(i0, i0 + len(range(a, n, s)))
    full = slice(None)
    return tuple(((a, b, full, full, i, j), (full, full, rows, cols))
                 for a, rows, i in axis(h) for b, cols, j in axis(w))


def _pad(x, s=1):
    """(B, C, H, W) -> channel-major (s, s, C, B, Hq, Wq), zero-padded by 1 and split into
    _phase_copies' stride-s phases, Hq = ceil((H+2)/s). At s == 1, [0, 0] is the padded input."""
    bsz, c, h, w = x.shape
    out = np.zeros((s, s, c, bsz, -(-(h + 2) // s), -(-(w + 2) // s)))
    xc = x.transpose(1, 0, 2, 3)
    for phase, grid in _phase_copies(h, w, s):
        out[phase] = xc[grid]
    return out


def _unpad(phases, h, w):
    """The inverse of _pad: (s, s, C, B, Hq, Wq) phases -> the (B, C, h, w) grid they
    hold, a view of contiguous channel-major memory. The padding is dropped."""
    s, _, c, bsz = phases.shape[:4]
    out = np.empty((c, bsz, h, w))
    for phase, grid in _phase_copies(h, w, s):
        out[grid] = phases[phase]
    return out.transpose(1, 0, 2, 3)


def _conv2d(x, w, b, stride=1):
    bsz, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = _pad(x)  # (1, 1, Cin, B, H+2, W+2)
    ho = (h + 2 - kh) // stride + 1
    wo = (wd + 2 - kw) // stride + 1
    # windows (Cin, kh, kw, B, ho, wo): a strided view of xp whose reshape is the im2col
    # copy for one GEMM; the backward's per-tap shifted GEMMs ran 1.5-3.5x slower as a forward.
    # The ndarray constructor over xp's contiguous buffer costs a sixth of as_strided's set-up
    # and, unlike it, raises ValueError if the window does not fit the buffer.
    sc, sb, sh, sw = xp.strides[2:]
    win = np.ndarray((cin, kh, kw, bsz, ho, wo), xp.dtype, xp, 0,
                     (sc, sh, sw, sb, stride * sh, stride * sw))
    win.flags.writeable = False
    y = np.dot(w.reshape(cout, -1), win.reshape(cin * kh * kw, -1))
    return np.add(y, b[:, None], out=y).reshape(cout, bsz, ho, wo).transpose(1, 0, 2, 3)


def _conv2d_backward(dy, x, w, stride=1, *, dx=True):
    """Shifted-GEMM backward (Chellapilla, Puri & Simard 2006), no im2col copy.

    The padded input is split into stride**2 phases by _pad, each flattened
    channel-major to (Cin, B*Hq*Wq). Output (b, i, j) sits at flat index
    p = (b*Hq + i)*Wq + j of the same grid. Kernel tap (di, dj) reads padded
    pixel (s*i + di, s*j + dj), unpadded pixel (s*i + di - 1, s*j + dj - 1): phase
    ((di - 1) % s, (dj - 1) % s) at p + (di // s)*Wq + dj // s, so every tap is
    one contiguous slice. dy is zero on the grid positions that are not outputs,
    so the windows that wrap across a row or an image add exactly 0.
    dx is a (B, Cin, H, W) view of channel-major memory, or None when the
    caller passes dx=False and only wants dw and db.
    """
    bsz, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    s = stride
    ho, wo = dy.shape[2], dy.shape[3]
    xp = _pad(x, s)
    hq, wq = xp.shape[4:]
    phases = xp.reshape(s, s, cin, bsz * hq * wq)
    g = np.zeros((cout, bsz, hq, wq))
    g[:, :, :ho, :wo] = dy.transpose(1, 0, 2, 3)
    n = bsz * hq * wq - ((kh - 1) // s) * wq - (kw - 1) // s
    g = g.reshape(cout, -1)[:, :n]
    dw = np.empty_like(w)
    # The taps (a0 + s*r, b0 + s*c) of phase (a, b), a0 = (a + 1) % s, read it at offset
    # r*Wq + c: one (rows, cols, n, Cin) window, so one stacked matmul makes their dw
    # blocks, each the same GEMM, bit for bit, as a per-tap g @ phases[a, b, :, off:off + n].T
    sa, sb, sc, sp = phases.strides
    for a in range(s):
        for b in range(s):
            a0, b0 = (a + 1) % s, (b + 1) % s
            win = np.ndarray((len(range(a0, kh, s)), len(range(b0, kw, s)), n, cin),
                             phases.dtype, phases, a * sa + b * sb, (wq * sp, sp, sp, sc))
            dw[:, :, a0::s, b0::s] = np.matmul(g, win).transpose(2, 3, 0, 1)
    db = g.sum(axis=1)
    if not dx:
        return None, dw, db
    # per-tap (Cin, Cout) blocks must be contiguous for matmul to use BLAS
    wt = np.ascontiguousarray(w.transpose(2, 3, 1, 0))
    dphases = np.zeros_like(phases)
    tap = np.empty((cin, n))  # reused: a fresh buffer per tap costs page faults
    for di in range(kh):
        for dj in range(kw):
            off = (di // s) * wq + dj // s
            a, b = (di - 1) % s, (dj - 1) % s
            dphases[a, b, :, off:off + n] += np.matmul(wt[di, dj], g, out=tap)
    return _unpad(dphases.reshape(xp.shape), h, wd), dw, db


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


def _phase_kernels(w):
    """(Cout, Cin, 3, 3) -> (4*Cout, Cin, 2, 2), phase-major: block 2a + b of Cout
    kernels makes output phase (a, b), the pixels (u, v) with u % 2 == a and v % 2 == b."""
    cout, cin = w.shape[:2]
    w4 = np.dot(w.reshape(cout * cin, 9), _PHASE_FOLD_T).reshape(cout, cin, 4, 2, 2)
    return w4.transpose(2, 0, 1, 3, 4).reshape(4 * cout, cin, 2, 2)


def _upconv(x, w4, b):
    """_conv2d(_upsample2(x), w, b) as sub-pixel convolution (Shi et al. 2016),
    given w4 = _phase_kernels(w), which ModelParams.phase_kernels holds.

    One 2x2 conv of the low-res x makes all four output phases as a
    (B, 4*Cout, h+1, w+1) grid; output pixel (2r + a, 2c + b) is phase
    (a, b) at (r + a, c + b). That is _pad's stride-2 layout of the output,
    so _unpad interleaves the phases, and the upsampled input is never built.
    """
    bsz, _, h, wd = x.shape
    cout = w4.shape[0] // 4
    y4 = _conv2d(x, w4, np.concatenate((b, b, b, b))).transpose(1, 0, 2, 3)  # contiguous
    return _unpad(y4.reshape(2, 2, cout, bsz, h + 1, wd + 1), 2 * h, 2 * wd)


def _upconv_backward(dy, x, w4):
    """dx, dw, db of _upconv(x, w4, b), with dw of the 3x3 kernel w that w4 folds."""
    bsz, cin, h, wd = x.shape
    cout = w4.shape[0] // 4
    g4 = _pad(dy, 2).reshape(4 * cout, bsz, h + 1, wd + 1)
    dx, dw4, db4 = _conv2d_backward(g4.transpose(1, 0, 2, 3), x, w4)
    dw4 = dw4.reshape(4, cout, cin, 4).transpose(1, 2, 0, 3).reshape(cout * cin, 16)
    return (dx, (dw4 @ _PHASE_FOLD).reshape(cout, cin, 3, 3),
            db4.reshape(4, cout).sum(axis=0))


@dataclass
class ForwardTrace:
    """One image's outputs."""

    pred: SoftMask
    recon: Image


def _forward_batch(params: ModelParams, x: np.ndarray):
    """x: (B, 1, H, W) -> (pred, recon, cache), each output (B, 1, H, W)."""
    # each conv's and head's output is a fresh array, so its ReLU or sigmoid overwrites it
    t, w4 = params.tensors, params.phase_kernels
    a1 = _conv2d(x, t["enc1.w"], t["enc1.b"])
    np.maximum(a1, 0.0, out=a1)
    a2 = _conv2d(a1, t["enc2.w"], t["enc2.b"], stride=2)
    np.maximum(a2, 0.0, out=a2)
    a3 = _conv2d(a2, t["enc3.w"], t["enc3.b"], stride=2)
    np.maximum(a3, 0.0, out=a3)
    a4 = _upconv(a3, w4["dec1.w"], t["dec1.b"])
    np.maximum(a4, 0.0, out=a4)
    a5 = _upconv(a4, w4["dec2.w"], t["dec2.b"])
    np.maximum(a5, 0.0, out=a5)
    a5m = a5.transpose(1, 0, 2, 3).reshape(a5.shape[1], -1)  # (C, B*H*W), a view
    z_seg = np.dot(t["seg.w"].ravel(), a5m)
    z_seg += t["seg.b"]
    z_rec = np.dot(t["rec.w"].ravel(), a5m)
    z_rec += t["rec.b"]
    pred = _sigmoid(z_seg).reshape(x.shape)
    recon = _sigmoid(z_rec).reshape(x.shape)
    cache = {"x": x, "a1": a1, "a2": a2, "a3": a3, "a4": a4, "a5": a5,
             "pred": pred, "recon": recon}
    return pred, recon, cache


def forward_bytes(config: ModelConfig, batch_size: int) -> int:
    """Bytes that one _forward_batch of batch_size images holds at its peak, estimated.

    Per image of P = H*W pixels, in float64: the cache keeps a1-a5, with
    C, 2C, 4C, 2C and C channels at P, P/4, P/16, P/4 and P pixels, plus pred
    and recon, so (3.25*C + 2)*P values. On top of that sits the largest im2col
    copy: enc1's 9*P, enc2's 9*C*P/4, or dec2's 8*C*(H/2 + 1)*(W/2 + 1) (2C
    channels x 4 taps of its 2x2 phase conv). The other layers' copies are smaller.
    """
    c, h, w = config.base_channels, config.input_size.height, config.input_size.width
    px = h * w
    im2col = max(9 * px, 9 * c * px // 4, 8 * c * (h // 2 + 1) * (w // 2 + 1))
    return 8 * batch_size * (13 * c * px // 4 + 2 * px + im2col)


def _backward_batch(params: ModelParams, cache: dict,
                    d_pred: np.ndarray, d_recon: np.ndarray) -> np.ndarray:
    """Gradient of every parameter as one flat float64 vector, laid out like params.flat."""
    t, w4 = params.tensors, params.phase_kernels
    g = {}
    a5c = cache["a5"].transpose(1, 0, 2, 3)  # (C, B, H, W), contiguous
    a5m = a5c.reshape(len(a5c), -1)
    # every gradient below is a fresh array, so each ReLU mask is applied to it in place
    dz_seg = d_pred * cache["pred"]
    dz_seg *= 1.0 - cache["pred"]
    dz_rec = d_recon * cache["recon"]
    dz_rec *= 1.0 - cache["recon"]
    dz_seg, dz_rec = dz_seg.ravel(), dz_rec.ravel()
    g["seg.w"], g["seg.b"] = np.dot(a5m, dz_seg), dz_seg.sum()
    g["rec.w"], g["rec.b"] = np.dot(a5m, dz_rec), dz_rec.sum()
    da5 = t["seg.w"].reshape(-1, 1) * dz_seg
    da5 += t["rec.w"].reshape(-1, 1) * dz_rec
    np.multiply(da5, a5m > 0.0, out=da5)
    da4, g["dec2.w"], g["dec2.b"] = _upconv_backward(
        da5.reshape(a5c.shape).transpose(1, 0, 2, 3), cache["a4"], w4["dec2.w"])
    np.multiply(da4, cache["a4"] > 0.0, out=da4)
    da3, g["dec1.w"], g["dec1.b"] = _upconv_backward(da4, cache["a3"], w4["dec1.w"])
    np.multiply(da3, cache["a3"] > 0.0, out=da3)
    da2, g["enc3.w"], g["enc3.b"] = _conv2d_backward(da3, cache["a2"], t["enc3.w"], stride=2)
    np.multiply(da2, cache["a2"] > 0.0, out=da2)
    da1, g["enc2.w"], g["enc2.b"] = _conv2d_backward(da2, cache["a1"], t["enc2.w"], stride=2)
    np.multiply(da1, cache["a1"] > 0.0, out=da1)
    _, g["enc1.w"], g["enc1.b"] = _conv2d_backward(da1, cache["x"], t["enc1.w"], dx=False)
    return np.concatenate([g[name].ravel()
                           for name, _ in param_shapes(params.config.base_channels)])


def forward(params: ModelParams, image: Image) -> ForwardTrace:
    """One-image inference; training runs _forward_batch and _backward_batch."""
    size = params.config.input_size
    if image.values.shape != (size.height, size.width):
        raise ShapeMismatchError(
            f"image shape {image.shape} does not match model input {size}")
    x = image.values[None, None, :, :]
    pred, recon, _ = _forward_batch(params, x)
    return ForwardTrace(pred=SoftMask(pred[0, 0]), recon=Image(recon[0, 0]))


def save_checkpoint(params: ModelParams, path):
    cfg = params.config
    header = _CKPT_HEADER.pack(_CKPT_MAGIC, _CKPT_VERSION,
                               cfg.input_size.height, cfg.input_size.width,
                               cfg.base_channels, cfg.seed, params.n_params)
    with open(path, "wb") as f:
        f.write(header)
        f.write(params.flat.astype("<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as f:
        raw = f.read()
    hsize = _CKPT_HEADER.size
    if len(raw) < hsize:
        raise MalformedFileError(f"{path}: truncated checkpoint")
    magic, version, h, w, c, seed, n = _CKPT_HEADER.unpack_from(raw)
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
