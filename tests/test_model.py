import struct

import numpy as np
import pytest
from fdcheck import central_diff_vec, max_rel_err
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from statseg.errors import InvalidConfigError, MalformedFileError, ShapeMismatchError
from statseg.grid import GridShape, Image, Mask
from statseg import model
from statseg.losses import LossWeights, total_loss
from statseg.model import (ModelConfig, ModelParams, _backward_batch, _conv2d,
                           _conv2d_backward, _forward_batch, _pad, _phase_kernels, _sigmoid,
                           _unpad, _upconv, _upconv_backward, _upsample2, forward,
                           forward_bytes, init_params, load_checkpoint, param_shapes,
                           save_checkpoint)
from statseg.morphology import weak_mask

CFG = ModelConfig(GridShape(8, 8), base_channels=4, seed=3)


def fixture_inputs(seed=7):
    rng = np.random.default_rng(seed)
    image = Image(rng.uniform(0, 1, (8, 8)))
    gt_arr = (rng.uniform(0, 1, (8, 8)) < 0.3).astype(float)
    gt_arr[4, 4] = 1.0
    gt = Mask(gt_arr)
    return image, gt, weak_mask(gt, 0.5)


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        ModelConfig(GridShape(6, 8))
    with pytest.raises(InvalidConfigError):
        ModelConfig(GridShape(8, 8), base_channels=0)


def test_init_deterministic():
    a = init_params(CFG).flatten()
    b = init_params(CFG).flatten()
    assert np.array_equal(a, b)
    c = init_params(ModelConfig(GridShape(8, 8), base_channels=4, seed=4)).flatten()
    assert not np.array_equal(a, c)


def test_init_biases_zero():
    params = init_params(CFG)
    for name, t in params.tensors.items():
        if name.endswith(".b"):
            assert not t.any()


def test_init_kernel_std():
    params = init_params(ModelConfig(GridShape(8, 8), base_channels=16, seed=0))
    w = params.tensors["enc3.w"]  # 64*32*9 = 18432 weights
    assert w.size >= 10_000
    fan_in = np.prod(w.shape[1:])
    expected = np.sqrt(2.0 / fan_in)
    assert abs(w.std() - expected) / expected < 0.10


def test_flatten_roundtrip_exact():
    params = init_params(CFG)
    again = ModelParams.from_flat(CFG, params.flatten())
    for name in params.tensors:
        assert np.array_equal(params.tensors[name], again.tensors[name])


def test_tensors_are_views_of_flat():
    params = init_params(CFG)
    params.tensors["enc2.w"][1, 0, 2, 2] = 7.0
    params.tensors["rec.b"][0] = -3.0
    flat = params.flatten()
    assert flat[-1] == -3.0
    assert 7.0 in flat
    assert np.array_equal(flat, np.concatenate([t.ravel() for t in params.tensors.values()]))


def test_from_flat_copies_its_input():
    vec = init_params(CFG).flatten()
    params = ModelParams.from_flat(CFG, vec)
    before = params.flatten()
    vec[:] = 0.0
    assert np.array_equal(params.flatten(), before)
    params.flatten()[:] = 1.0
    assert np.array_equal(params.flatten(), before)


@pytest.mark.parametrize("bad", ["short", "long", "nan", "inf"])
def test_from_flat_rejects_bad_vector(bad):
    vec = init_params(CFG).flatten()
    if bad == "short":
        vec = vec[:-1]
    elif bad == "long":
        vec = np.append(vec, 0.0)
    else:
        vec[5] = np.nan if bad == "nan" else np.inf
    with pytest.raises(ValueError):
        ModelParams.from_flat(CFG, vec)


def test_forward_shapes_and_determinism():
    params = init_params(CFG)
    image, _, _ = fixture_inputs()
    t1 = forward(params, image)
    t2 = forward(params, image)
    assert t1.pred.shape == image.shape and t1.recon.shape == image.shape
    assert np.array_equal(t1.pred.values, t2.pred.values)
    assert np.array_equal(t1.recon.values, t2.recon.values)
    assert 0.0 < t1.pred.values.min() and t1.pred.values.max() < 1.0
    assert 0.0 < t1.recon.values.min() and t1.recon.values.max() < 1.0


def test_forward_zero_params_gives_half():
    zeros = ModelParams.from_flat(CFG, np.zeros(init_params(CFG).n_params))
    image, _, _ = fixture_inputs()
    trace = forward(zeros, image)
    assert np.all(trace.pred.values == 0.5)
    assert np.all(trace.recon.values == 0.5)


def test_forward_shape_mismatch():
    params = init_params(CFG)
    with pytest.raises(ShapeMismatchError):
        forward(params, Image(np.zeros((4, 4))))


def test_backward_zero_seed_gives_zero_grads():
    params = init_params(CFG)
    image, _, _ = fixture_inputs()
    _, _, cache = _forward_batch(params, image.values[None, None])
    grads = _backward_batch(params, cache, np.zeros((1, 1, 8, 8)), np.zeros((1, 1, 8, 8)))
    assert not grads.flatten().any()


def test_relu_dead_unit_blocks_gradient():
    # force enc1 channel 0 dead everywhere via a large negative bias;
    # its incoming kernel must then receive zero gradient
    params = init_params(CFG)
    params.tensors["enc1.b"][0] = -100.0
    image, _, _ = fixture_inputs()
    _, _, cache = _forward_batch(params, image.values[None, None])
    assert not cache["a1"][0, 0].any()
    grads = _backward_batch(params, cache, np.ones((1, 1, 8, 8)), np.ones((1, 1, 8, 8)))
    enc1_w = ModelParams.from_flat(CFG, grads).tensors["enc1.w"]
    assert not enc1_w[0].any()
    assert enc1_w[1:].any()


def conv_backward_reference(dy, x, w, stride, pad):
    """dx, dw, db of a cross-correlation, one output pixel at a time."""
    bsz, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.zeros((bsz, cin, h + 2 * pad, wd + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + wd] = x
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for b in range(bsz):
        for o in range(cout):
            for i in range(dy.shape[2]):
                for j in range(dy.shape[3]):
                    rows = slice(i * stride, i * stride + kh)
                    cols = slice(j * stride, j * stride + kw)
                    dw[o] += dy[b, o, i, j] * xp[b, :, rows, cols]
                    dxp[b, :, rows, cols] += dy[b, o, i, j] * w[o]
    return dxp[:, :, pad:pad + h, pad:pad + wd], dw, dy.sum(axis=(0, 2, 3))


def per_tap_weight_gradient(dy, x, w, stride):
    """dw of _conv2d_backward as one g @ window.T GEMM per kernel tap: the loop that
    its stacked matmul replaced, on the same phase-split input and dy grid."""
    bsz, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    s = stride
    xp = np.zeros((cin, bsz, -(-(h + 2) // s) * s, -(-(wd + 2) // s) * s))
    xp[:, :, 1:h + 1, 1:wd + 1] = x.transpose(1, 0, 2, 3)
    hq, wq = xp.shape[2] // s, xp.shape[3] // s
    phases = np.ascontiguousarray(
        xp.reshape(cin, bsz, hq, s, wq, s).transpose(3, 5, 0, 1, 2, 4)
    ).reshape(s, s, cin, bsz * hq * wq)
    g = np.zeros((cout, bsz, hq, wq))
    g[:, :, :dy.shape[2], :dy.shape[3]] = dy.transpose(1, 0, 2, 3)
    n = bsz * hq * wq - ((kh - 1) // s) * wq - (kw - 1) // s
    g = g.reshape(cout, -1)[:, :n]
    dw = np.empty_like(w)
    for di in range(kh):
        for dj in range(kw):
            off = (di // s) * wq + dj // s
            dw[:, :, di, dj] = g @ phases[di % s, dj % s, :, off:off + n].T
    return dw


def channel_major(a):
    """The same (B, C, H, W) values, stored as a transposed (C, B, H, W) array."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


@pytest.mark.parametrize("layout", ["c_order", "channel_major"])
@pytest.mark.parametrize("bsz", [1, 3])
@pytest.mark.parametrize("h,wd", [(8, 12), (7, 9)])
@pytest.mark.parametrize("s", [1, 2])
def test_pad_phases_hold_pixels_by_parity_and_unpad_inverts_it(s, h, wd, bsz, layout):
    x = np.random.default_rng(53).normal(size=(bsz, 3, h, wd))
    if layout == "channel_major":
        x = channel_major(x)
    xp = _pad(x, s)
    assert xp.shape == (s, s, 3, bsz, -(-(h + 2) // s), -(-(wd + 2) // s))
    rest = xp.copy()
    for a in range(s):
        for b in range(s):
            # pixel (u, v) of phase (a, b) sits at ((u + 1) // s, (v + 1) // s)
            block = x[:, :, a::s, b::s].transpose(1, 0, 2, 3)
            i0, j0 = (a + 1) // s, (b + 1) // s
            rows, cols = slice(i0, i0 + block.shape[2]), slice(j0, j0 + block.shape[3])
            assert np.array_equal(xp[a, b, :, :, rows, cols], block)
            rest[a, b, :, :, rows, cols] = 0.0
    assert not rest.any()
    back = _unpad(xp, h, wd)
    assert back.transpose(1, 0, 2, 3).flags.c_contiguous
    assert np.array_equal(back, x)


# every layer of the network on an 8x12 input with C = 2:
# (cin, cout, kernel, stride, input height, input width); every conv pads by 1.
# The model runs seg and rec as dot products on a5 (test_heads_match_nested_loops);
# their 1x1 rows keep the conv kernels checked at kernel size 1.
LAYER_GEOMETRIES = {
    "enc1": (1, 2, 3, 1, 8, 12),
    "enc2": (2, 4, 3, 2, 8, 12),
    "enc3": (4, 8, 3, 2, 4, 6),
    "dec1": (8, 4, 3, 1, 4, 6),
    "dec2": (4, 2, 3, 1, 8, 12),
    "seg": (2, 1, 1, 1, 8, 12),
    "rec": (2, 1, 1, 1, 8, 12),
}
# odd heights and widths, which the model never runs (its grid is divisible by 4),
# so that a window or a phase split that assumes even sizes fails here
ODD_GEOMETRIES = {
    "odd7x9_s1": (3, 2, 3, 1, 7, 9),
    "odd7x9_s2": (2, 3, 3, 2, 7, 9),
}
CONV_GEOMETRIES = {**LAYER_GEOMETRIES, **ODD_GEOMETRIES}


@pytest.mark.parametrize("layout", ["c_order", "channel_major"])
@pytest.mark.parametrize("bsz", [1, 3])
@pytest.mark.parametrize("layer", CONV_GEOMETRIES)
def test_conv2d_backward_matches_nested_loops(layer, bsz, layout):
    cin, cout, k, stride, h, wd = CONV_GEOMETRIES[layer]
    rng = np.random.default_rng(11)
    x = rng.normal(size=(bsz, cin, h, wd))
    w = rng.normal(size=(cout, cin, k, k))
    dy = rng.normal(size=(bsz, cout, (h + 2 - k) // stride + 1, (wd + 2 - k) // stride + 1))
    expected = conv_backward_reference(dy, x, w, stride, 1)
    c_order = _conv2d_backward(dy, x, w, stride=stride)
    if layout == "channel_major":
        x, dy = channel_major(x), channel_major(dy)
    got = _conv2d_backward(dy, x, w, stride=stride)
    for name, a, b, c in zip(("dx", "dw", "db"), got, expected, c_order):
        assert a.shape == b.shape, name
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12), name
        assert np.array_equal(a, c), name
    assert np.array_equal(got[1], per_tap_weight_gradient(dy, x, w, stride))


def conv_reference(x, w, b, stride, pad):
    """A cross-correlation, one output pixel at a time."""
    bsz, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.zeros((bsz, cin, h + 2 * pad, wd + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + wd] = x
    y = np.empty((bsz, cout, (h + 2 * pad - kh) // stride + 1,
                  (wd + 2 * pad - kw) // stride + 1))
    for bi in range(bsz):
        for o in range(cout):
            for i in range(y.shape[2]):
                for j in range(y.shape[3]):
                    window = xp[bi, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    y[bi, o, i, j] = (window * w[o]).sum() + b[o]
    return y


def upsample_reference(x):
    """Nearest 2x upsampling, one output pixel at a time."""
    bsz, c, h, wd = x.shape
    u = np.empty((bsz, c, 2 * h, 2 * wd))
    for i in range(2 * h):
        for j in range(2 * wd):
            u[:, :, i, j] = x[:, :, i // 2, j // 2]
    return u


@pytest.mark.parametrize("bsz", [1, 3])
@pytest.mark.parametrize("layer", CONV_GEOMETRIES)
def test_conv2d_matches_nested_loops(layer, bsz):
    cin, cout, k, stride, h, wd = CONV_GEOMETRIES[layer]
    rng = np.random.default_rng(13)
    x = rng.normal(size=(bsz, cin, h, wd))
    w = rng.normal(size=(cout, cin, k, k))
    b = rng.normal(size=cout)
    expected = conv_reference(x, w, b, stride, 1)
    got = _conv2d(x, w, b, stride=stride)
    assert got.shape == expected.shape
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)
    assert np.array_equal(_conv2d(channel_major(x), w, b, stride=stride), got)


def upconv_case(layer, bsz, seed):
    """Low-res input, 3x3 weights and bias of a decoder layer on an 8x12 image."""
    cin, cout, _, _, h, wd = LAYER_GEOMETRIES[layer]
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(bsz, cin, h // 2, wd // 2)),
            rng.normal(size=(cout, cin, 3, 3)), rng.normal(size=cout))


def four_assignment_upconv(x, w, b):
    """_upconv with its phases interleaved one slice assignment each, as it was."""
    bsz, _, h, wd = x.shape
    cout = w.shape[0]
    y4 = _conv2d(x, _phase_kernels(w), np.concatenate((b, b, b, b)))
    y = np.empty((cout, bsz, 2 * h, 2 * wd)).transpose(1, 0, 2, 3)
    for p, (a, c) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        y[:, :, a::2, c::2] = y4[:, p * cout:(p + 1) * cout, a:a + h, c:c + wd]
    return y


def row_phases(grid, c):
    """Phases (0, c) and (1, c) of a channel-major (4*Cout, B, h+1, w+1) phase grid, as
    one (Cout, B, h, 2, w) view whose axis 3 is the row phase a: phase (a, c) holds
    output pixel (2r + a, 2q + c) at (r + a, q + c), 2*a + c blocks of Cout channels in."""
    cout, bsz, h, wd = grid.shape[0] // 4, grid.shape[1], grid.shape[2] - 1, grid.shape[3] - 1
    sp, sb, sr, sq = grid.strides
    return np.ndarray((cout, bsz, h, 2, wd), grid.dtype, grid, c * (cout * sp + sq),
                      (sp, sb, sr, 2 * cout * sp + sr, sq))


def row_phases_upconv(x, w4, b):
    """_upconv with its phases interleaved one column phase at a time, as it was."""
    bsz, _, h, wd = x.shape
    cout = w4.shape[0] // 4
    y4 = _conv2d(x, w4, np.concatenate((b, b, b, b))).transpose(1, 0, 2, 3)
    y = np.empty((cout, bsz, h, 2, wd, 2))
    for c in range(2):
        y[..., c] = row_phases(y4, c)
    return y.reshape(cout, bsz, 2 * h, 2 * wd).transpose(1, 0, 2, 3)


def row_phases_upconv_backward(dy, x, w4):
    """_upconv_backward with dy scattered into its phases one column phase at a time,
    as it was."""
    bsz, cin, h, wd = x.shape
    cout = w4.shape[0] // 4
    g4 = np.zeros((4 * cout, bsz, h + 1, wd + 1))
    dy6 = dy.transpose(1, 0, 2, 3).reshape(cout, bsz, h, 2, wd, 2)
    for c in range(2):
        row_phases(g4, c)[...] = dy6[..., c]
    dx, dw4, db4 = _conv2d_backward(g4.transpose(1, 0, 2, 3), x, w4)
    dw4 = dw4.reshape(4, cout, cin, 4).transpose(1, 2, 0, 3).reshape(cout * cin, 16)
    return (dx, (dw4 @ model._PHASE_FOLD).reshape(cout, cin, 3, 3),
            db4.reshape(4, cout).sum(axis=0))


@pytest.mark.parametrize("bsz", [1, 3])
@pytest.mark.parametrize("layer", ["dec1", "dec2"])
def test_upconv_matches_upsample_then_conv(layer, bsz):
    x, w, b = upconv_case(layer, bsz, seed=17)
    got = _upconv(x, _phase_kernels(w), b)
    for expected in (_conv2d(_upsample2(x), w, b),
                     conv_reference(upsample_reference(x), w, b, 1, 1)):
        assert got.shape == expected.shape
        assert np.allclose(got, expected, rtol=1e-13, atol=1e-13)
    assert np.array_equal(_upconv(channel_major(x), _phase_kernels(w), b), got)
    assert np.array_equal(four_assignment_upconv(x, w, b), got)
    assert np.array_equal(row_phases_upconv(x, _phase_kernels(w), b), got)


@pytest.mark.parametrize("layout", ["c_order", "channel_major"])
@pytest.mark.parametrize("bsz", [1, 3])
@pytest.mark.parametrize("layer", ["dec1", "dec2"])
def test_upconv_backward_matches_nested_loops(layer, bsz, layout):
    x, w, _ = upconv_case(layer, bsz, seed=19)
    bsz, _, h, wd = x.shape
    dy = np.random.default_rng(23).normal(size=(bsz, w.shape[0], 2 * h, 2 * wd))
    du, dw, db = conv_backward_reference(dy, upsample_reference(x), w, 1, 1)
    # each low-res pixel feeds the 2x2 block it was copied to
    dx = du.reshape(bsz, -1, h, 2, wd, 2).sum(axis=(3, 5))
    c_order = _upconv_backward(dy, x, _phase_kernels(w))
    if layout == "channel_major":
        x, dy = channel_major(x), channel_major(dy)
    got = _upconv_backward(dy, x, _phase_kernels(w))
    for name, a, b, c in zip(("dx", "dw", "db"), got, (dx, dw, db), c_order):
        assert a.shape == b.shape, name
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12), name
        assert np.array_equal(a, c), name
    for name, a, b in zip(("dx", "dw", "db"), got,
                          row_phases_upconv_backward(dy, x, _phase_kernels(w))):
        assert np.array_equal(a, b), name


def test_activations_are_views_of_channel_major_memory():
    params = init_params(ModelConfig(GridShape(8, 12), base_channels=2, seed=5))
    x = np.random.default_rng(43).uniform(size=(3, 1, 8, 12))
    _, _, cache = _forward_batch(params, x)
    for name in ("a1", "a2", "a3", "a4", "a5"):
        assert cache[name].transpose(1, 0, 2, 3).flags.c_contiguous, name


def test_heads_match_nested_loops():
    params = init_params(ModelConfig(GridShape(8, 12), base_channels=2, seed=5))
    rng = np.random.default_rng(47)
    pred, recon, cache = _forward_batch(params, rng.uniform(size=(3, 1, 8, 12)))
    d_pred, d_recon = rng.normal(size=pred.shape), rng.normal(size=recon.shape)
    grads = ModelParams.from_flat(params.config,
                                  _backward_batch(params, cache, d_pred, d_recon)).tensors
    for head, out, d_out in (("seg", pred, d_pred), ("rec", recon, d_recon)):
        w, b = params.tensors[f"{head}.w"], params.tensors[f"{head}.b"]
        z = conv_reference(cache["a5"], w, b, 1, 0)
        assert out.shape == z.shape, head
        assert np.allclose(out, 1.0 / (1.0 + np.exp(-z)), rtol=1e-13, atol=1e-13), head
        dz = d_out * out * (1.0 - out)
        _, dw, db = conv_backward_reference(dz, cache["a5"], w, 1, 0)
        assert np.allclose(grads[f"{head}.w"], dw, rtol=1e-12, atol=1e-12), head
        assert np.allclose(grads[f"{head}.b"], db, rtol=1e-12, atol=1e-12), head


@pytest.mark.parametrize("layer", ["dec1", "dec2"])
def test_upconv_backward_is_adjoint(layer):
    x, w, _ = upconv_case(layer, 3, seed=29)
    y = _upconv(x, _phase_kernels(w), np.zeros(w.shape[0]))
    dy = np.random.default_rng(31).normal(size=y.shape)
    dx, dw, db = _upconv_backward(dy, x, _phase_kernels(w))
    # y is linear in x for fixed w and in w for fixed x, and db sums dy
    assert np.isclose(np.vdot(y, dy), np.vdot(x, dx), rtol=1e-13)
    assert np.isclose(np.vdot(y, dy), np.vdot(w, dw), rtol=1e-13)
    assert np.allclose(db, dy.sum(axis=(0, 2, 3)), rtol=1e-13)


@pytest.mark.parametrize("layer", ["enc1", "enc2"])
def test_conv2d_backward_without_dx(layer):
    cin, cout, k, stride, h, wd = LAYER_GEOMETRIES[layer]
    rng = np.random.default_rng(37)
    x = rng.normal(size=(2, cin, h, wd))
    w = rng.normal(size=(cout, cin, k, k))
    dy = rng.normal(size=(2, cout, (h + 2 - k) // stride + 1, (wd + 2 - k) // stride + 1))
    _, dw, db = _conv2d_backward(dy, x, w, stride=stride)
    none, dw_only, db_only = _conv2d_backward(dy, x, w, stride=stride, dx=False)
    assert none is None
    assert np.array_equal(dw_only, dw) and np.array_equal(db_only, db)


@pytest.mark.parametrize("height,width,channels", [(8, 8, 8), (8, 12, 2), (64, 64, 4)])
def test_forward_bytes_is_the_cache_plus_the_largest_im2col(monkeypatch, height, width,
                                                           channels):
    im2col = []  # (Cin*kh*kw) x (B*ho*wo) values, for each conv the forward runs

    def recording_conv2d(x, w, b, stride=1):
        y = conv2d(x, w, b, stride)
        im2col.append(w[0].size * y.shape[0] * y.shape[2] * y.shape[3])
        return y

    conv2d = model._conv2d
    monkeypatch.setattr(model, "_conv2d", recording_conv2d)
    cfg = ModelConfig(GridShape(height, width), base_channels=channels)
    _, _, cache = _forward_batch(init_params(cfg), np.zeros((3, 1, height, width)))
    cached = sum(cache[k].nbytes for k in ("a1", "a2", "a3", "a4", "a5", "pred", "recon"))
    assert len(im2col) == 5
    assert forward_bytes(cfg, 3) == cached + 8 * max(im2col)


def test_sigmoid_bits_match_the_two_branch_formula():
    z = np.concatenate([np.random.default_rng(41).normal(scale=30.0, size=2000),
                        [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, np.nan]])
    expected = np.empty_like(z)
    pos = z >= 0
    expected[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    with np.errstate(over="ignore"):
        ez = np.exp(z[~pos])
        expected[~pos] = ez / (1.0 + ez)
    with np.errstate(over="raise", invalid="raise"):
        got = _sigmoid(z[None, None, :].copy())[0, 0]  # it overwrites its argument
    assert np.array_equal(got, expected, equal_nan=True)


def _param_gradcheck(weights, seed):
    image, gt, weak = fixture_inputs(seed)
    flat = init_params(CFG).flatten()
    x = image.values[None, None]

    def loss_of(vec):
        pred, recon, _ = _forward_batch(ModelParams.from_flat(CFG, vec), x)
        return total_loss(image, gt, weak, pred[0, 0], recon[0, 0], weights)[0].total

    params = ModelParams.from_flat(CFG, flat)
    pred, recon, cache = _forward_batch(params, x)
    _, d_pred, d_recon = total_loss(image, gt, weak, pred[0, 0], recon[0, 0], weights)
    analytic = _backward_batch(params, cache, d_pred[None, None], d_recon[None, None])
    numeric = central_diff_vec(loss_of, flat, 1e-4)
    assert max_rel_err(analytic, numeric) < 1e-3


@pytest.mark.parametrize("weights", [
    LossWeights(1, 0, 0, 0, 0),
    LossWeights(0, 1, 0, 0, 0),
    LossWeights(0, 0, 1, 0, 0),
    LossWeights(0, 0, 0, 1, 0),
    LossWeights(0, 0, 0, 0, 1),
    LossWeights(),
], ids=["l_c", "l_r", "l_s", "l_ws", "l_full", "total"])
def test_parameter_gradients_per_term(weights):
    _param_gradcheck(weights, seed=7)


def test_checkpoint_roundtrip(tmp_path):
    params = init_params(CFG)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.config == CFG
    assert np.array_equal(loaded.flatten(), params.flatten())


def test_model_seed_fits_the_checkpoint_header(tmp_path):
    cfg = ModelConfig(GridShape(8, 8), base_channels=1, seed=2**32 - 1)
    save_checkpoint(init_params(cfg), tmp_path / "model.ckpt")
    assert load_checkpoint(tmp_path / "model.ckpt").config == cfg
    for seed in (-1, 2**32):
        with pytest.raises(InvalidConfigError, match="4294967295"):
            ModelConfig(GridShape(8, 8), seed=seed)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(MalformedFileError):
        load_checkpoint(path)


SMALL = ModelConfig(GridShape(8, 8), base_channels=1, seed=5)
HEADER = "<8sIIIIIQ"
SMALL_CKPT_BYTES = struct.calcsize(HEADER) + 8 * init_params(SMALL).n_params


@pytest.mark.parametrize("field,value", [
    ("base_channels", 0), ("height", 6), ("height", 0), ("payload", np.nan)])
def test_checkpoint_bad_header_or_payload(tmp_path, field, value):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(SMALL), path)
    raw = bytearray(path.read_bytes())
    header = dict(zip(("magic", "version", "height", "width", "base_channels", "seed", "n"),
                      struct.unpack_from(HEADER, raw)))
    if field == "payload":
        struct.pack_into("<d", raw, struct.calcsize(HEADER), value)
    else:
        header[field] = value
        struct.pack_into(HEADER, raw, 0, *header.values())
    path.write_bytes(bytes(raw))
    with pytest.raises(MalformedFileError):
        load_checkpoint(path)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, SMALL_CKPT_BYTES - 1)),
    st.tuples(st.just("flip"), st.integers(0, 8 * SMALL_CKPT_BYTES - 1))))
def test_checkpoint_corruption_loads_or_raises_malformed(tmp_path, edit):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(SMALL), path)
    raw = bytearray(path.read_bytes())
    assert len(raw) == SMALL_CKPT_BYTES
    kind, k = edit
    if kind == "truncate":
        raw = raw[:k]
    else:
        raw[k // 8] ^= 1 << (k % 8)
    path.write_bytes(bytes(raw))
    try:
        load_checkpoint(path)
    except MalformedFileError:
        pass


def test_param_shapes_head_outputs_single_channel():
    shapes = dict(param_shapes(4))
    assert shapes["seg.w"] == (1, 4, 1, 1)
    assert shapes["rec.w"] == (1, 4, 1, 1)
