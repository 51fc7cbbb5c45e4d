import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from statseg.errors import ShapeMismatchError
from statseg.evaluation import (EvalReport, binarize, detect_degenerate,
                                evaluate_predictions, iou)
from statseg.grid import Mask, SoftMask

mask_arrays = arrays(np.float64, (6, 6), elements=st.sampled_from([0.0, 1.0]))


def brute_force_iou(a, b):
    inter = union = 0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            if a[i, j] == 1 and b[i, j] == 1:
                inter += 1
            if a[i, j] == 1 or b[i, j] == 1:
                union += 1
    return 1.0 if union == 0 else inter / union


def retired_float_iou(pred, gt):
    """The float-product IoU that evaluate_predictions used before it counted booleans."""
    a, b = np.asarray(pred, dtype=np.float64), np.asarray(gt, dtype=np.float64)
    inter = (a * b).sum(axis=(-2, -1))
    union = a.sum(axis=(-2, -1)) + b.sum(axis=(-2, -1)) - inter
    return (inter + (union == 0.0)) / np.maximum(union, 1.0)


def test_binarize_examples():
    assert np.all(binarize(np.full((2, 2), 0.7)).values == 1.0)
    assert np.all(binarize(np.full((2, 2), 0.5)).values == 1.0)  # inclusive
    out = binarize(np.array([[0.4, 0.6]]))
    assert np.array_equal(out.values, [[0.0, 1.0]])


def test_iou_examples():
    a = np.zeros((2, 2))
    a[0, 0] = 1.0
    assert iou(Mask(a), Mask(a)) == 1.0

    b = np.zeros((2, 2))
    b[1, 1] = 1.0
    assert iou(Mask(a), Mask(b)) == 0.0

    p = np.zeros((2, 2))
    p[0, 0] = p[0, 1] = 1.0
    g = np.zeros((2, 2))
    g[0, 1] = g[1, 1] = 1.0
    assert iou(Mask(p), Mask(g)) == pytest.approx(1.0 / 3.0)


def test_iou_empty_conventions():
    empty = Mask(np.zeros((3, 3)))
    full = Mask(np.ones((3, 3)))
    assert iou(empty, empty) == 1.0
    assert iou(empty, full) == 0.0


def test_iou_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        iou(Mask(np.zeros((2, 2))), Mask(np.zeros((2, 3))))


@given(mask_arrays, mask_arrays)
def test_iou_matches_enumeration(a, b):
    assert iou(Mask(a), Mask(b)) == brute_force_iou(a, b)


@given(mask_arrays, mask_arrays)
def test_iou_symmetry(a, b):
    assert iou(Mask(a), Mask(b)) == iou(Mask(b), Mask(a))


@given(mask_arrays)
def test_iou_identity(a):
    assert iou(Mask(a), Mask(a)) == 1.0


def test_detect_degenerate_constant_at_ratio():
    rep = detect_degenerate(np.full((8, 8), 0.15), 0.15)
    assert rep.flagged and rep.std == 0.0 and rep.mean == pytest.approx(0.15)


def test_detect_degenerate_binary_prediction_not_flagged():
    # near-binary output matching the ratio: std far above the cutoff
    for ratio in (0.02, 0.1, 0.5, 0.98):
        n = 1000
        k = round(ratio * n)
        vals = np.concatenate([np.full(k, 1.0 - 1e-6), np.full(n - k, 1e-6)])
        rep = detect_degenerate(vals.reshape(20, 50), ratio)
        assert rep.std > 0.05
        assert not rep.flagged


def test_detect_degenerate_wrong_mean_not_flagged():
    rep = detect_degenerate(np.full((4, 4), 0.65), 0.15)
    assert not rep.flagged and rep.std < 0.05


def test_evaluate_predictions_aggregates():
    class FakeSample:
        def __init__(self, gt, stat):
            self.gt = gt
            self.stat = stat

    gt = np.zeros((2, 2))
    gt[0, 0] = 1.0
    samples = [FakeSample(Mask(gt), 0.25), FakeSample(Mask(gt), 0.25)]
    preds = [SoftMask(gt.copy()), SoftMask(np.full((2, 2), 0.25))]
    report = evaluate_predictions(preds, samples)
    assert report.ious[0] == 1.0
    assert report.mean_iou == pytest.approx(np.mean(report.ious))
    assert report.degenerate_fraction == 0.5
    assert not report.degenerate


@pytest.mark.parametrize("shape", [(8, 8), (64, 64), (5, 7)])
def test_evaluate_predictions_matches_the_float_iou(shape):
    """Same report, field for field and bit for bit, as the float IoU gives; the stack
    holds empty-vs-empty, empty-vs-full, full-vs-empty and random masks."""
    class FakeSample:
        def __init__(self, gt, stat):
            self.gt = gt
            self.stat = stat

    rng = np.random.default_rng(sum(shape))
    gts = [np.zeros(shape), np.ones(shape), np.zeros(shape)]
    probs = [np.full(shape, 0.2), np.full(shape, 0.1), np.full(shape, 0.9)]
    for _ in range(20):
        gts.append((rng.uniform(size=shape) < rng.uniform()).astype(np.float64))
        probs.append(rng.uniform(size=shape) ** rng.uniform(0.2, 5.0))
    samples = [FakeSample(Mask(g), float(rng.uniform(0.0, 0.5))) for g in gts]
    preds = [SoftMask(p) for p in probs]
    ious = retired_float_iou(np.stack(probs) >= 0.5, np.stack(gts))
    flags = detect_degenerate(np.stack(probs), np.array([s.stat for s in samples])).flagged
    expected = EvalReport(ious=tuple(ious.tolist()), mean_iou=float(ious.mean()),
                          degenerate=float(flags.mean()) > 0.5,
                          degenerate_fraction=float(flags.mean()),
                          pred_mean=float(np.stack(probs).mean()),
                          pred_std=float(np.stack(probs).std()))
    assert ious[:3].tolist() == [1.0, 0.0, 0.0]
    assert evaluate_predictions(preds, samples) == expected
    for p, g in zip(probs, gts):
        assert iou(Mask((p >= 0.5).astype(np.float64)), Mask(g)) == retired_float_iou(p >= 0.5, g)
