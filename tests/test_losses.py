import math
from dataclasses import astuple

import numpy as np
import pytest
from fdcheck import central_diff_grid, max_rel_err
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from statseg.errors import NonBinaryWeakMaskError, ShapeMismatchError
from statseg.evaluation import detect_degenerate, iou
from statseg.grid import Mask, SoftMask, summary_stat
from statseg.losses import (EPS, LossWeights, confidence_loss,
                            full_supervision_loss, reconstruction_loss,
                            stats_loss, total_loss, weak_supervision_loss)

soft_arrays = arrays(np.float64, (4, 4), elements=st.floats(0.0, 1.0, width=16))


def rand_inputs(seed, shape=(5, 5)):
    rng = np.random.default_rng(seed)
    pred = rng.uniform(0.05, 0.95, shape)
    image = rng.uniform(0.0, 1.0, shape)
    recon = rng.uniform(0.05, 0.95, shape)
    gt = (rng.uniform(0, 1, shape) < 0.4).astype(float)
    weak = gt * (rng.uniform(0, 1, shape) < 0.5)
    return image, recon, gt, weak, pred


# --- closed-form values ---

def test_confidence_loss_values():
    assert confidence_loss(np.full((3, 3), 0.5))[0] == pytest.approx(0.25, abs=1e-12)
    assert confidence_loss(np.ones((3, 3)))[0] == pytest.approx(0.0, abs=1e-12)
    assert confidence_loss(np.zeros((3, 3)))[0] == pytest.approx(0.0, abs=1e-12)
    assert confidence_loss(np.full((2, 2), 0.25))[0] == pytest.approx(0.1875, abs=1e-12)


def test_reconstruction_loss_values():
    x = np.array([[0.2, 0.8]])
    assert reconstruction_loss(x, x)[0] == 0.0
    assert reconstruction_loss(np.zeros((2, 2)), np.ones((2, 2)))[0] == 1.0
    assert reconstruction_loss(x, np.array([[0.5, 0.5]]))[0] == pytest.approx(0.3, abs=1e-12)


def test_stats_loss_values():
    gt = np.zeros((2, 2))
    gt[0, 0] = 1.0
    assert stats_loss(gt, np.full((2, 2), 0.25))[0] == pytest.approx(0.0, abs=1e-12)
    assert stats_loss(np.ones((3, 3)), np.zeros((3, 3)))[0] == 1.0
    assert stats_loss(gt, np.full((2, 2), 0.1))[0] == pytest.approx(0.15, abs=1e-12)


def test_weak_supervision_loss_values():
    assert weak_supervision_loss(np.zeros((3, 3)), np.full((3, 3), 0.7))[0] == 0.0
    loss, _ = weak_supervision_loss(np.ones((1, 1)), np.full((1, 1), 0.5))
    assert loss == pytest.approx(math.log(2.0), abs=1e-9)
    loss, _ = weak_supervision_loss(np.ones((1, 1)), np.full((1, 1), 1.0 - EPS))
    assert abs(loss) < 1e-6


def test_full_supervision_loss_values():
    gt = np.array([[1.0, 0.0]])
    loss, _ = full_supervision_loss(gt, np.array([[1.0 - EPS, EPS]]))
    assert abs(loss) < 1e-6
    loss, _ = full_supervision_loss(np.ones((1, 1)), np.full((1, 1), 0.5))
    assert loss == pytest.approx(0.693147, abs=1e-6)
    loss, _ = full_supervision_loss(gt, np.array([[0.9, 0.1]]))
    assert loss == pytest.approx(0.105361, abs=1e-6)


def test_total_loss_values():
    x = np.full((2, 2), 0.5)
    zero = LossWeights(0, 0, 0, 0, 0)
    rep, dp, dr = total_loss(x, None, None, x, x, zero)
    assert rep.total == 0.0 and not dp.any() and not dr.any()

    rep, _, _ = total_loss(None, None, None, np.full((3, 3), 0.5), None,
                           LossWeights(w_c=1, w_r=0, w_s=0, w_ws=0))
    assert rep.total == pytest.approx(0.25, abs=1e-12)

    gt = np.zeros((2, 2))
    gt[0, 0] = 1.0
    pred = np.full((2, 2), 0.1)
    weak = np.zeros((2, 2))
    weak[0, 0] = 1.0
    # 1x1-style fixture scaled to 2x2: check linear combination directly
    rep, _, _ = total_loss(None, gt, weak, pred, None,
                           LossWeights(w_c=0, w_r=0, w_s=1, w_ws=1))
    l_s = stats_loss(gt, pred)[0]
    l_ws = weak_supervision_loss(weak, pred)[0]
    assert rep.total == pytest.approx(l_s + l_ws, abs=1e-12)
    assert l_s == pytest.approx(0.15, abs=1e-12)


def test_shape_mismatch_raised():
    with pytest.raises(ShapeMismatchError):
        reconstruction_loss(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ShapeMismatchError):
        stats_loss(np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(ShapeMismatchError):
        weak_supervision_loss(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ShapeMismatchError):
        full_supervision_loss(np.zeros((2, 2)), np.zeros((2, 3)))


def test_nonbinary_weak_mask_rejected():
    with pytest.raises(NonBinaryWeakMaskError):
        weak_supervision_loss(np.full((2, 2), 0.5), np.full((2, 2), 0.5))


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(w_c=-1.0)
    with pytest.raises(ValueError):
        LossWeights(w_s=float("nan"))


# --- gradients vs central differences ---

@pytest.mark.parametrize("seed", range(5))
def test_gradients_match_finite_differences(seed):
    image, recon, gt, weak, pred = rand_inputs(seed)
    step = 1e-5

    cases = [
        (lambda p: confidence_loss(p)[0], confidence_loss(pred)[1], pred),
        (lambda r: reconstruction_loss(image, r)[0],
         reconstruction_loss(image, recon)[1], recon),
        (lambda p: stats_loss(gt, p)[0], stats_loss(gt, pred)[1], pred),
        (lambda p: weak_supervision_loss(weak, p)[0],
         weak_supervision_loss(weak, pred)[1], pred),
        (lambda p: full_supervision_loss(gt, p)[0],
         full_supervision_loss(gt, pred)[1], pred),
    ]
    for f, analytic, x in cases:
        numeric = central_diff_grid(f, x, step)
        assert max_rel_err(analytic, numeric) < 1e-4


def test_total_loss_gradient_matches_finite_differences():
    image, recon, gt, weak, pred = rand_inputs(123)
    weights = LossWeights(w_c=0.7, w_r=1.3, w_s=2.0, w_ws=0.5, w_full=0.25)
    _, d_pred, d_recon = total_loss(image, gt, weak, pred, recon, weights)
    fd_pred = central_diff_grid(
        lambda p: total_loss(image, gt, weak, p, recon, weights)[0].total, pred, 1e-5)
    fd_recon = central_diff_grid(
        lambda r: total_loss(image, gt, weak, pred, r, weights)[0].total, recon, 1e-5)
    assert max_rel_err(d_pred, fd_pred) < 1e-4
    assert max_rel_err(d_recon, fd_recon) < 1e-4


# --- properties ---

@given(soft_arrays)
def test_confidence_loss_range(pred):
    loss, _ = confidence_loss(pred)
    assert -1e-12 <= loss <= 0.25 + 1e-12


def test_confidence_loss_extremes():
    assert confidence_loss(np.full((2, 2), 0.5))[0] == pytest.approx(0.25)
    mixed = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert confidence_loss(mixed)[0] == pytest.approx(0.0, abs=1e-12)
    off = np.full((2, 2), 0.5)
    off[0, 0] = 0.4
    assert confidence_loss(off)[0] < 0.25


def test_weak_loss_locality():
    rng = np.random.default_rng(5)
    weak = np.zeros((4, 4))
    weak[1, 1] = 1.0
    pred = rng.uniform(0.1, 0.9, (4, 4))
    base, _ = weak_supervision_loss(weak, pred)
    pred2 = pred.copy()
    pred2[2, 3] = 0.999  # weak == 0 there
    changed, _ = weak_supervision_loss(weak, pred2)
    assert changed == base


@given(arrays(np.float64, (4, 4), elements=st.sampled_from([0.0, 1.0])))
def test_stats_loss_degeneracy_witness(gt):
    r = summary_stat(Mask(gt))
    pred = np.full((4, 4), r)
    assert stats_loss(gt, pred)[0] == pytest.approx(0.0, abs=1e-12)


def test_losses_non_negative():
    image, recon, gt, weak, pred = rand_inputs(9)
    assert confidence_loss(pred)[0] >= 0
    assert reconstruction_loss(image, recon)[0] >= 0
    assert stats_loss(gt, pred)[0] >= 0
    assert weak_supervision_loss(weak, pred)[0] >= 0
    assert full_supervision_loss(gt, pred)[0] >= 0


def test_total_loss_linear_in_weights():
    image, recon, gt, weak, pred = rand_inputs(11)
    rep1, _, _ = total_loss(image, gt, weak, pred, recon, LossWeights(w_s=1.0))
    rep2, _, _ = total_loss(image, gt, weak, pred, recon, LossWeights(w_s=2.0))
    contrib1 = rep1.total - (rep1.l_c + rep1.l_r + rep1.l_ws)
    contrib2 = rep2.total - (rep2.l_c + rep2.l_r + rep2.l_ws)
    assert contrib2 == pytest.approx(2.0 * contrib1, rel=1e-12)


def test_losses_accept_grid_types():
    pred = SoftMask(np.full((2, 2), 0.5))
    assert confidence_loss(pred)[0] == pytest.approx(0.25)


# --- a (B, H, W) batch is the per-grid calls, bit for bit ---

ALL_TERMS = LossWeights(w_c=0.7, w_r=1.3, w_s=2.0, w_ws=0.5, w_full=0.25)


def _total_loss_outputs(image, recon, gt, weak, pred, weights):
    rep, d_pred, d_recon = total_loss(image, gt, weak, pred, recon, weights)
    return astuple(rep) + (d_pred, d_recon)


@pytest.mark.parametrize("outputs", [
    lambda i, r, g, w, p: _total_loss_outputs(i, r, g, w, p, ALL_TERMS),
    lambda i, r, g, w, p: _total_loss_outputs(i, r, g, w, p, LossWeights(w_s=0.0, w_ws=0.0)),
    lambda i, r, g, w, p: (iou(p >= 0.5, g),),
    lambda i, r, g, w, p: astuple(detect_degenerate(p, g.mean(axis=(-2, -1)))),
], ids=["total_loss", "total_loss_two_terms", "iou", "detect_degenerate"])
def test_batched_call_equals_per_grid_calls(outputs):
    grids = [np.stack(field) for field in zip(*(rand_inputs(s, (6, 5)) for s in range(4)))]
    image, recon, gt, weak, pred = grids
    gt[1] = weak[1] = 0.0            # empty vs empty IoU
    pred[1] = 0.2
    pred[2] = gt[2].mean()           # flagged degenerate
    batched = outputs(*grids)
    for k in range(4):
        for b, g in zip(batched, outputs(*(a[k] for a in grids)), strict=True):
            assert np.array_equal(b[k], g)
