"""Adam optimizer, training loop, and the ablation grid runner."""
from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .errors import (InvalidConfigError, NonFiniteGradientError,
                     NonFiniteLossError)
from .evaluation import binarize, evaluate_predictions
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


@dataclass
class OptimizerState:
    """Adam with standard bias correction; moments stored as flat vectors."""

    n_params: int
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: np.ndarray = field(default=None, repr=False)
    v: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning rate must be non-negative")
        if self.m is None:
            self.m = np.zeros(self.n_params)
        if self.v is None:
            self.v = np.zeros(self.n_params)


def optimizer_step(params: ModelParams, grads: ModelParams,
                   state: OptimizerState) -> tuple[ModelParams, OptimizerState]:
    g = grads.flat
    if not np.all(np.isfinite(g)):
        raise NonFiniteGradientError("gradient contains NaN or infinity")
    t = state.step_count + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * g
    v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    update = state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
    return (ModelParams(params.config, params.flat - update),
            replace(state, step_count=t, m=m, v=v))


def weights_for_mode(mode: str) -> LossWeights:
    if mode not in MODE_WEIGHTS:
        raise InvalidConfigError(f"unknown mode {mode!r}")
    return MODE_WEIGHTS[mode]


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

    @property
    def weights(self) -> LossWeights:
        return weights_for_mode(self.mode)

    def as_dict(self) -> dict:
        return {"mode": self.mode, "weak_coverage": self.weak_coverage,
                "weights": asdict(self.weights),
                "epochs": self.epochs, "batch_size": self.batch_size,
                "learning_rate": self.learning_rate, "seed": self.seed}


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
    model_config: ModelConfig = field(repr=False, default=None)
    final_params_flat: np.ndarray = field(repr=False, default=None)
    overlays: list = field(repr=False, default_factory=list)

    def summary_dict(self) -> dict:
        # wall_seconds deliberately lives only here, not in any CSV,
        # so reruns produce byte-identical CSVs
        return {"name": self.name, "mode": self.mode, "coverage": self.coverage,
                "seed": self.seed, "epochs": self.epochs,
                "final_iou": self.final_iou, "degenerate": self.degenerate,
                "degenerate_fraction": self.degenerate_fraction,
                "pred_mean": self.pred_mean, "pred_std": self.pred_std,
                "initial_train_loss": self.initial_train_loss,
                "final_train_loss": self.final_train_loss,
                "wall_seconds": self.wall_seconds,
                "config": self.config}


def _stack(samples, idx, name: str) -> np.ndarray:
    """(B, H, W) array of one grid field of the samples at idx."""
    return np.stack([getattr(samples[i], name).values for i in idx])


def _batch_losses(samples, idx, x, pred_b, recon_b, weights):
    """One total_loss over a batch; gradients already divided by batch size."""
    rep, d_pred, d_recon = total_loss(x[:, 0], _stack(samples, idx, "gt"),
                                      _stack(samples, idx, "weak"),
                                      pred_b[:, 0], recon_b[:, 0], weights)
    bad = np.flatnonzero(~np.isfinite(rep.total))
    if bad.size:
        k = bad[0]
        terms = ", ".join(f"{f.name}={getattr(rep, f.name)[k]}" for f in fields(LossReport))
        raise NonFiniteLossError(f"non-finite loss on sample {idx[k]}: {terms}")
    bsz = len(idx)
    return rep, d_pred[:, None] / bsz, d_recon[:, None] / bsz


def _mean_report(reports) -> LossReport:
    """Each term's mean over every sample of a list of batch reports."""
    per_sample = {f.name: np.concatenate([getattr(r, f.name) for r in reports]).tolist()
                  for f in fields(LossReport)}
    # Python's left-to-right sum, so the mean does not depend on the batching
    return LossReport(**{name: sum(v) / len(v) for name, v in per_sample.items()})


def _mean_total(params, samples, idx, weights, batch_size) -> float:
    reports = []
    for start in range(0, len(idx), batch_size):
        chunk = idx[start:start + batch_size]
        x = _stack(samples, chunk, "image")[:, None]
        pred_b, recon_b, _ = _forward_batch(params, x)
        reports.append(_batch_losses(samples, chunk, x, pred_b, recon_b, weights)[0])
    return _mean_report(reports).total


def _eval_predictions(params, samples, idx, batch_size=16):
    """(H, W) prediction arrays of the samples at idx, in order."""
    preds = []
    for start in range(0, len(idx), batch_size):
        chunk = idx[start:start + batch_size]
        pred_b, _, _ = _forward_batch(params, _stack(samples, chunk, "image")[:, None])
        preds.extend(pred_b[:, 0])
    return preds


def run_name(config: AblationConfig) -> str:
    return f"{config.mode}_cov{config.weak_coverage:g}_seed{config.seed}"


# overflow ends in a non-finite loss or gradient, which _batch_losses and
# optimizer_step report as one error; numpy's warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def train(dataset, config: AblationConfig, model_config: ModelConfig) -> RunRecord:
    """Mini-batch training with a deterministic 80/20 split keyed on config.seed."""
    if not dataset:
        raise ValueError("dataset must be non-empty")
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
    dataset = [replace(s, weak=weak_mask(s.gt, config.weak_coverage))
               for s in dataset]

    params = init_params(model_config)
    state = OptimizerState(n_params=params.n_params, learning_rate=config.learning_rate)
    weights = config.weights

    initial_train_loss = _mean_total(params, dataset, train_idx, weights, config.batch_size)

    eval_samples = [dataset[i] for i in eval_idx]
    epoch_losses, epoch_ious = [], []
    for _ in range(config.epochs):
        order = rng.permutation(train_idx)
        epoch_reports = []
        for start in range(0, len(order), config.batch_size):
            chunk = order[start:start + config.batch_size]
            x = _stack(dataset, chunk, "image")[:, None]
            pred_b, recon_b, cache = _forward_batch(params, x)
            rep, d_pred, d_recon = _batch_losses(dataset, chunk, x, pred_b, recon_b, weights)
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

    final_train_loss = _mean_total(params, dataset, train_idx, weights, config.batch_size)

    overlays = [(s.image, s.gt, s.weak, binarize(p, report.threshold))
                for s, p in list(zip(eval_samples, eval_preds))[:4]]

    return RunRecord(
        name=run_name(config), mode=config.mode, coverage=config.weak_coverage,
        seed=config.seed, epochs=config.epochs,
        epoch_losses=epoch_losses, epoch_ious=epoch_ious,
        final_iou=report.mean_iou, degenerate=report.degenerate,
        degenerate_fraction=report.degenerate_fraction,
        pred_mean=report.pred_mean, pred_std=report.pred_std,
        initial_train_loss=initial_train_loss, final_train_loss=final_train_loss,
        wall_seconds=time.perf_counter() - t0, config=config.as_dict(),
        model_config=model_config, final_params_flat=params.flatten(),
        overlays=overlays)


def default_grid(coverages=(0.04, 0.08, 0.12), seed: int = 0,
                 epochs: int = 30, batch_size: int = 8,
                 learning_rate: float = 1e-3) -> list:
    """Stats only, combined at each coverage, weak only, fully supervised."""
    common = dict(epochs=epochs, batch_size=batch_size,
                  learning_rate=learning_rate, seed=seed)
    grid = [AblationConfig(mode="stats_only", **common)]
    grid += [AblationConfig(mode="combined", weak_coverage=c, **common) for c in coverages]
    grid.append(AblationConfig(mode="weak_only", **common))
    grid.append(AblationConfig(mode="fully_supervised", **common))
    return grid


def run_ablation_grid(dataset, model_config: ModelConfig, grid,
                      jobs: int = 1) -> list:
    """One RunRecord per config; configs sharing a seed share the data split.

    Uses min(jobs, configs, CPUs) worker processes, and none when that is 1.
    """
    if jobs < 1:
        raise InvalidConfigError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(grid), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(train, dataset, cfg, model_config) for cfg in grid]
            return [f.result() for f in futures]
    return [train(dataset, cfg, model_config) for cfg in grid]
