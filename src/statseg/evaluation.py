"""IoU scoring, degenerate-output detection, and report emission."""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ShapeMismatchError
from .grid import Grid, Mask, as_array
from .pgm import write_pgm

DEFAULT_THRESHOLD = 0.5
DEGENERATE_STD = 0.05
DEGENERATE_MEAN_TOL = 0.10

SUMMARY_CSV_HEADER = "mode,coverage,final_iou,degenerate,mean_pred,std_pred,epochs,seed"


def binarize(pred) -> Mask:
    """1 where pred >= DEFAULT_THRESHOLD (inclusive)."""
    return Mask((as_array(pred) >= DEFAULT_THRESHOLD).astype(np.float64))


def iou(pred, gt):
    """Intersection over union per grid of binary (..., H, W) masks; empty vs empty is 1.0.

    Nonzero pixels are foreground. Both counts are integer sums of boolean grids,
    exact, so each IoU is the one correctly rounded quotient."""
    a, b = (np.asarray(m.values if isinstance(m, Grid) else m, dtype=bool) for m in (pred, gt))
    if a.shape != b.shape:
        raise ShapeMismatchError(f"mask shapes differ: {a.shape} vs {b.shape}")
    # bool sums, not np.count_nonzero, whose Python wrapper costs more than the count at 8x8
    inter = (a & b).sum(axis=(-2, -1))
    union = (a | b).sum(axis=(-2, -1))
    # where union is 0, inter is 0 and this reads 1/1
    return (inter + (union == 0)) / np.maximum(union, 1)


@dataclass(frozen=True)
class DegeneracyReport:
    flagged: bool
    mean: float
    std: float


def detect_degenerate(pred, target_ratio) -> DegeneracyReport:
    """Flag near-constant (..., H, W) predictions whose mean sits near the target ratio."""
    p = as_array(pred)
    mean = p.mean(axis=(-2, -1))
    std = p.std(axis=(-2, -1))
    flagged = (std < DEGENERATE_STD) & (np.abs(mean - target_ratio) < DEGENERATE_MEAN_TOL)
    return DegeneracyReport(flagged=flagged, mean=mean, std=std)


@dataclass(frozen=True)
class EvalReport:
    ious: tuple
    mean_iou: float
    degenerate: bool            # majority of samples flagged
    degenerate_fraction: float
    pred_mean: float            # pooled over all predictions
    pred_std: float


def evaluate_predictions(preds, samples) -> EvalReport:
    """Score soft predictions against their samples' ground truth."""
    if len(preds) != len(samples):
        raise ValueError("one prediction per sample required")
    p = np.stack([as_array(pred) for pred in preds])
    gt = np.stack([s.gt.values for s in samples], dtype=bool, casting="unsafe")
    ious = iou(p >= DEFAULT_THRESHOLD, gt)
    flags = detect_degenerate(p, np.array([s.stat for s in samples])).flagged
    frac = float(flags.mean())
    return EvalReport(ious=tuple(ious.tolist()),
                      mean_iou=float(ious.mean()),
                      degenerate=frac > 0.5,
                      degenerate_fraction=frac,
                      pred_mean=float(p.mean()),
                      pred_std=float(p.std()))


def _epoch_csv_lines(record) -> list:
    lines = ["epoch,l_c,l_r,l_s,l_ws,l_full,total,mean_iou"]
    for i, (rep, miou) in enumerate(zip(record.epoch_losses, record.epoch_ious)):
        lines.append(f"{i},{rep.l_c:.8f},{rep.l_r:.8f},{rep.l_s:.8f},"
                     f"{rep.l_ws:.8f},{rep.l_full:.8f},{rep.total:.8f},{miou:.6f}")
    return lines


def summary_csv_row(record) -> str:
    return (f"{record.mode},{record.coverage:.4f},{record.final_iou:.6f},"
            f"{str(record.degenerate).lower()},{record.pred_mean:.6f},"
            f"{record.pred_std:.6f},{record.epochs},{record.seed}")


def emit_report(records, out_dir):
    """Write summary.csv, per-run epochs.csv + summary.json, and PGM overlays."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    lines = [SUMMARY_CSV_HEADER] + [summary_csv_row(r) for r in records]
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n")

    for record in records:
        run_dir = out_dir / record.name
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "epochs.csv").write_text("\n".join(_epoch_csv_lines(record)) + "\n")
        (run_dir / "summary.json").write_text(json.dumps(record.summary_dict(), indent=2) + "\n")

        for k, (img, gt, weak, predmask) in enumerate(record.overlays):
            for kind, grid in (("input", img), ("gt", gt),
                               ("weak", weak), ("pred", predmask)):
                write_pgm(run_dir / f"sample{k}.{kind}.pgm",
                          np.rint(as_array(grid) * 255.0).astype(np.uint8))
