"""Adam optimizer, training loop, and the ablation grid runner."""
from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .errors import (InvalidConfigError, NonFiniteGradientError,
                     NonFiniteLossError, ShapeMismatchError)
from .evaluation import binarize, evaluate_predictions
from .grid import Mask
from .losses import LossReport, LossWeights, total_loss
from .model import ModelConfig, ModelParams, _backward_batch, _forward_batch, init_params
from .morphology import weak_mask

# mode -> loss weights; confidence and reconstruction stay on in every mode
MODE_WEIGHTS = {
    "stats_only": LossWeights(w_s=1.0, w_ws=0.0, w_full=0.0),
    "weak_only": LossWeights(w_s=0.0, w_ws=1.0, w_full=0.0),
    "combined": LossWeights(w_s=1.0, w_ws=1.0, w_full=0.0),
    "fully_supervised": LossWeights(w_s=0.0, w_ws=0.0, w_full=1.0),
}
MODES = tuple(MODE_WEIGHTS)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Prediction bits depend on the batch size: at 64x64, B=4 and B=16 passes
# differ by up to 1.1e-16, so every eval pass uses this one size.
EVAL_BATCH_SIZE = 16


@dataclass
class OptimizerState:
    """Adam with standard bias correction; moments start at 0.0 and become flat vectors."""

    learning_rate: float = 1e-3
    step_count: int = 0
    m: float | np.ndarray = field(default=0.0, repr=False)
    v: float | np.ndarray = field(default=0.0, repr=False)

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning rate must be non-negative")


def optimizer_step(params: ModelParams, g: np.ndarray,
                   state: OptimizerState) -> tuple[ModelParams, OptimizerState]:
    """One Adam step; g is the flat gradient vector, laid out like params.flat."""
    if not np.all(np.isfinite(g)):
        raise NonFiniteGradientError("gradient contains NaN or infinity")
    t = state.step_count + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    update = state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return (ModelParams(params.config, params.flat - update),
            replace(state, step_count=t, m=m, v=v))


@dataclass(frozen=True)
class AblationConfig:
    mode: str
    weak_coverage: float = 0.08
    epochs: int = 30
    batch_size: int = 8
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 < self.weak_coverage <= 1.0:
            raise InvalidConfigError("weak_coverage must be in (0, 1]")
        if self.epochs < 0 or self.batch_size < 1:
            raise InvalidConfigError("epochs must be >= 0 and batch_size >= 1")
        if not 0.0 <= self.learning_rate < float("inf"):
            raise InvalidConfigError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.seed < 0:
            raise InvalidConfigError(f"ablation seed must be non-negative, got {self.seed}")

    @property
    def weights(self) -> LossWeights:
        return MODE_WEIGHTS[self.mode]

    def as_dict(self) -> dict:
        return {"mode": self.mode, "weak_coverage": self.weak_coverage,
                "weights": asdict(self.weights),
                "epochs": self.epochs, "batch_size": self.batch_size,
                "learning_rate": self.learning_rate, "seed": self.seed}


# the per-epoch lists go to epochs.csv; parameters and overlays to their own files
_NOT_IN_SUMMARY = {"epoch_losses", "epoch_ious", "final_params_flat", "overlays"}


@dataclass
class RunRecord:
    name: str
    mode: str
    coverage: float
    seed: int
    epochs: int
    epoch_losses: list           # mean LossReport per epoch (train split)
    epoch_ious: list             # mean IoU per epoch (eval split)
    final_iou: float
    degenerate: bool
    degenerate_fraction: float
    pred_mean: float
    pred_std: float
    initial_train_loss: float
    final_train_loss: float
    wall_seconds: float
    config: dict
    final_params_flat: np.ndarray = field(repr=False, default=None)
    overlays: list = field(repr=False, default_factory=list)

    def summary_dict(self) -> dict:
        # wall_seconds deliberately lives only here, not in any CSV,
        # so reruns produce byte-identical CSVs
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in _NOT_IN_SUMMARY}


def _images(samples, idx) -> np.ndarray:
    """(B, 1, H, W) array of the images of the samples at idx."""
    return np.stack([samples[i].image.values for i in idx])[:, None]


def _batch(params, samples, masks, idx, weights):
    """Forward pass and total_loss of the samples at idx.

    `masks` is the run's (gt, weak) pair of (N, H, W) boolean stacks, indexed
    like samples; the losses read them as 0.0/1.0. Returns the loss report, the
    forward cache, and the gradients already divided by the batch size.
    """
    gt, weak = masks
    x = _images(samples, idx)
    pred_b, recon_b, cache = _forward_batch(params, x)
    rep, d_pred, d_recon = total_loss(x[:, 0], gt[idx], weak[idx],
                                      pred_b[:, 0], recon_b[:, 0], weights)
    bad = np.flatnonzero(~np.isfinite(rep.total))
    if bad.size:
        k = bad[0]
        terms = ", ".join(f"{f.name}={getattr(rep, f.name)[k]}" for f in fields(LossReport))
        raise NonFiniteLossError(f"non-finite loss on sample {idx[k]}: {terms}")
    bsz = len(idx)
    return rep, cache, d_pred[:, None] / bsz, d_recon[:, None] / bsz


def _mean_report(reports) -> LossReport:
    """Each term's mean over every sample of a list of batch reports."""
    per_sample = {f.name: np.concatenate([getattr(r, f.name) for r in reports])
                  for f in fields(LossReport)}
    # a strictly left-to-right sum, so the mean depends neither on the batching nor on
    # the Python version (sum() of floats is compensated from 3.12 on)
    return LossReport(**{k: float(np.cumsum(v)[-1]) / len(v) for k, v in per_sample.items()})


def _mean_total(params, samples, masks, idx, weights, batch_size) -> float:
    reports = [_batch(params, samples, masks, idx[start:start + batch_size], weights)[0]
               for start in range(0, len(idx), batch_size)]
    return _mean_report(reports).total


def _eval_predictions(params, samples, idx):
    """(H, W) prediction arrays of the samples at idx, in order."""
    preds = []
    for start in range(0, len(idx), EVAL_BATCH_SIZE):
        chunk = idx[start:start + EVAL_BATCH_SIZE]
        # keep only pred: a chunk's activation cache is freed before the next
        # chunk's forward, which is where a run's memory peaked
        preds.extend(_forward_batch(params, _images(samples, chunk))[0][:, 0])
    return preds


def run_name(config: AblationConfig) -> str:
    return f"{config.mode}_cov{config.weak_coverage:g}_seed{config.seed}"


# overflow ends in a non-finite loss or gradient, which _batch and
# optimizer_step report as one error; numpy's warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def train(dataset, config: AblationConfig, model_config: ModelConfig) -> RunRecord:
    """Mini-batch training with a deterministic 80/20 split keyed on config.seed."""
    if not dataset:
        raise ValueError("dataset must be non-empty")
    size = model_config.input_size
    for s in dataset:
        if s.image.shape != size:
            raise ShapeMismatchError(
                f"dataset grids are {s.image.shape.height}x{s.image.shape.width} "
                f"but the model input is {size.height}x{size.width}")
    t0 = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    n = len(dataset)
    perm = rng.permutation(n)
    n_eval = max(1, round(0.2 * n))
    if n_eval >= n:  # too few samples to split; evaluate on the training data
        train_idx, eval_idx = perm, perm
    else:
        train_idx, eval_idx = perm[:n - n_eval], perm[n - n_eval:]

    # one fixed annotation effort per run: the only place weak masks are
    # derived, once at the configured coverage, never re-eroded during training
    gt = np.stack([s.gt.values == 1.0 for s in dataset])
    weak = weak_mask(gt, config.weak_coverage)
    masks = gt, weak

    params = init_params(model_config)
    state = OptimizerState(learning_rate=config.learning_rate)
    weights = config.weights

    initial_train_loss = _mean_total(params, dataset, masks, train_idx, weights, config.batch_size)

    eval_samples = [dataset[i] for i in eval_idx]
    epoch_losses, epoch_ious = [], []
    for _ in range(config.epochs):
        order = rng.permutation(train_idx)
        epoch_reports = []
        for start in range(0, len(order), config.batch_size):
            rep, cache, d_pred, d_recon = _batch(
                params, dataset, masks, order[start:start + config.batch_size], weights)
            epoch_reports.append(rep)
            grads = _backward_batch(params, cache, d_pred, d_recon)
            params, state = optimizer_step(params, grads, state)
        epoch_losses.append(_mean_report(epoch_reports))
        eval_preds = _eval_predictions(params, dataset, eval_idx)
        report = evaluate_predictions(eval_preds, eval_samples)
        epoch_ious.append(report.mean_iou)
    if not config.epochs:  # otherwise the last epoch already scored these params
        eval_preds = _eval_predictions(params, dataset, eval_idx)
        report = evaluate_predictions(eval_preds, eval_samples)

    final_train_loss = _mean_total(params, dataset, masks, train_idx, weights, config.batch_size)

    overlays = [(dataset[i].image, dataset[i].gt, Mask(weak[i]), binarize(p))
                for i, p in list(zip(eval_idx, eval_preds))[:4]]

    return RunRecord(
        name=run_name(config), mode=config.mode, coverage=config.weak_coverage,
        seed=config.seed, epochs=config.epochs,
        epoch_losses=epoch_losses, epoch_ious=epoch_ious,
        final_iou=report.mean_iou, degenerate=report.degenerate,
        degenerate_fraction=report.degenerate_fraction,
        pred_mean=report.pred_mean, pred_std=report.pred_std,
        initial_train_loss=initial_train_loss, final_train_loss=final_train_loss,
        wall_seconds=time.perf_counter() - t0, config=config.as_dict(),
        final_params_flat=params.flatten(),
        overlays=overlays)


def default_grid(coverages=(0.04, 0.08, 0.12), **common) -> list:
    """Stats only, combined at each coverage, weak only, fully supervised; `common` holds
    the AblationConfig fields (epochs, batch_size, learning_rate, seed) all runs share."""
    grid = [AblationConfig(mode="stats_only", **common)]
    grid += [AblationConfig(mode="combined", weak_coverage=c, **common) for c in coverages]
    grid.append(AblationConfig(mode="weak_only", **common))
    grid.append(AblationConfig(mode="fully_supervised", **common))
    return grid


def grid_workers(jobs: int, n_configs: int) -> int:
    """The worker processes that run n_configs configs at once: min(jobs, configs, CPUs)."""
    if jobs < 1:
        raise InvalidConfigError(f"jobs must be >= 1, got {jobs}")
    return min(jobs, n_configs, os.cpu_count() or 1)


def run_ablation_grid(dataset, model_config: ModelConfig, grid,
                      jobs: int = 1) -> list:
    """One RunRecord per config; configs sharing a seed share the data split.

    Runs in grid_workers(jobs, configs) worker processes, and in none when that is 1.
    """
    workers = grid_workers(jobs, len(grid))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(train, dataset, cfg, model_config) for cfg in grid]
            return [f.result() for f in futures]
    return [train(dataset, cfg, model_config) for cfg in grid]
