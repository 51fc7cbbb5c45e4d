import struct

import numpy as np
import pytest
from fdcheck import central_diff_vec, max_rel_err
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from statseg.errors import InvalidConfigError, MalformedFileError, ShapeMismatchError
from statseg.grid import GridShape, Image, Mask
from statseg.losses import LossWeights, total_loss
from statseg.model import (ModelConfig, ModelParams, backward, forward,
                           init_params, load_checkpoint, param_shapes,
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
    trace = forward(params, image)
    grads = backward(trace, np.zeros((8, 8)), np.zeros((8, 8)))
    assert not grads.flatten().any()


def test_relu_dead_unit_blocks_gradient():
    # force enc1 channel 0 dead everywhere via a large negative bias;
    # its incoming kernel must then receive zero gradient
    params = init_params(CFG)
    params.tensors["enc1.b"][0] = -100.0
    image, _, _ = fixture_inputs()
    trace = forward(params, image)
    assert not trace.cache["a1"][0, 0].any()
    grads = backward(trace, np.ones((8, 8)), np.ones((8, 8)))
    assert not grads.tensors["enc1.w"][0].any()
    assert grads.tensors["enc1.w"][1:].any()


def _param_gradcheck(weights, seed):
    image, gt, weak = fixture_inputs(seed)
    flat = init_params(CFG).flatten()

    def loss_of(vec):
        trace = forward(ModelParams.from_flat(CFG, vec), image)
        return total_loss(image, gt, weak, trace.pred, trace.recon, weights)[0].total

    trace = forward(ModelParams.from_flat(CFG, flat), image)
    _, d_pred, d_recon = total_loss(image, gt, weak, trace.pred, trace.recon, weights)
    analytic = backward(trace, d_pred, d_recon).flatten()
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
