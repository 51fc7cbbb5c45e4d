import concurrent.futures
from dataclasses import replace

import numpy as np
import pytest

from statseg import training
from statseg.data import Sample, SynthConfig, generate_synthetic
from statseg.errors import (EmptyMaskError, InvalidConfigError,
                            NonFiniteGradientError, NonFiniteLossError,
                            ShapeMismatchError)
from statseg.evaluation import binarize, evaluate_predictions
from statseg.grid import GridShape, Mask
from statseg.losses import LossWeights
from statseg.model import ModelConfig, ModelParams, init_params
from statseg.morphology import weak_mask
from statseg.training import (AblationConfig, OptimizerState, default_grid,
                              optimizer_step, run_ablation_grid, train,
                              weights_for_mode)

MODEL = ModelConfig(GridShape(16, 16), base_channels=2, seed=0)


def tiny_dataset(n=10, seed=0):
    cfg = SynthConfig(shape=GridShape(16, 16), n_samples=n,
                      roi_fraction_range=(0.05, 0.25), contrast=0.6,
                      noise_std=0.02, background_level=0.2, seed=seed)
    return generate_synthetic(cfg)


def tiny_config(**kwargs):
    base = dict(mode="combined", epochs=2, batch_size=4, seed=0)
    base.update(kwargs)
    return AblationConfig(**base)


def scalar_adam_fixture():
    cfg = ModelConfig(GridShape(4, 4), base_channels=1, seed=0)
    return init_params(cfg), OptimizerState(learning_rate=0.01)


def test_optimizer_zero_gradient_is_noop():
    params, state = scalar_adam_fixture()
    zero = np.zeros(params.n_params)
    new_params, new_state = optimizer_step(params, zero, state)
    assert np.array_equal(new_params.flatten(), params.flatten())
    assert not new_state.m.any() and not new_state.v.any()
    assert new_state.step_count == 1


def test_optimizer_unit_gradient_first_step():
    params, state = scalar_adam_fixture()
    ones = np.ones(params.n_params)
    new_params, _ = optimizer_step(params, ones, state)
    delta = new_params.flatten() - params.flatten()
    # step 1 bias correction: m_hat = v_hat = 1, update = -lr / (1 + eps)
    assert np.allclose(delta, -0.01 / (1.0 + 1e-8), atol=1e-12)


def test_optimizer_deterministic():
    params, state = scalar_adam_fixture()
    g = np.linspace(-1, 1, params.n_params)
    p1, s1 = optimizer_step(params, g, state)
    params2, state2 = scalar_adam_fixture()
    p2, s2 = optimizer_step(params2, g, state2)
    assert np.array_equal(p1.flatten(), p2.flatten())
    assert np.array_equal(s1.m, s2.m) and np.array_equal(s1.v, s2.v)


def test_optimizer_rejects_nonfinite():
    params, state = scalar_adam_fixture()
    g = np.zeros(params.n_params)
    g[0] = np.nan
    with pytest.raises(NonFiniteGradientError):
        optimizer_step(params, g, state)


def test_weights_for_mode():
    assert weights_for_mode("stats_only") == LossWeights(1, 1, 1, 0, 0)
    assert weights_for_mode("weak_only") == LossWeights(1, 1, 0, 1, 0)
    assert weights_for_mode("combined") == LossWeights(1, 1, 1, 1, 0)
    assert weights_for_mode("fully_supervised") == LossWeights(1, 1, 0, 0, 1)
    with pytest.raises(InvalidConfigError):
        weights_for_mode("nope")


def test_ablation_config_mode_weight_invariants():
    for mode in ("stats_only", "weak_only", "combined", "fully_supervised"):
        assert AblationConfig(mode=mode).weights == weights_for_mode(mode)
    with pytest.raises(InvalidConfigError):
        AblationConfig(mode="unknown")


def test_batch_losses_names_the_nonfinite_sample(monkeypatch):
    dataset = tiny_dataset(5)
    gt = np.stack([s.gt.values == 1.0 for s in dataset])
    masks = gt, weak_mask(gt, 0.08)
    idx = np.array([4, 2, 0])
    rng = np.random.default_rng(0)
    pred_b = rng.uniform(0.1, 0.9, (3, 1, 16, 16))
    recon_b = rng.uniform(0.1, 0.9, (3, 1, 16, 16))
    monkeypatch.setattr(training, "_forward_batch", lambda params, x: (pred_b, recon_b, None))
    params = init_params(MODEL)
    weights = weights_for_mode("combined")
    training._batch(params, dataset, masks, idx, weights)
    pred_b[1, 0, 3, 3] = np.nan
    with pytest.raises(NonFiniteLossError, match=r"on sample 2: .*total=nan"):
        training._batch(params, dataset, masks, idx, weights)


@pytest.mark.parametrize("data_size,model_size", [(16, 64), (18, 16)])
def test_train_rejects_a_model_of_another_grid_size(monkeypatch, data_size, model_size):
    def no_work(*args):
        pytest.fail("train() derived weak masks before checking the shapes")

    monkeypatch.setattr(training, "weak_mask", no_work)
    cfg = SynthConfig(shape=GridShape(data_size, data_size), n_samples=4, seed=0)
    model = ModelConfig(GridShape(model_size, model_size), base_channels=2)
    with pytest.raises(ShapeMismatchError,
                       match=rf"{data_size}x{data_size} .* {model_size}x{model_size}"):
        train(generate_synthetic(cfg), tiny_config(), model)


def test_train_names_the_sample_with_an_empty_ground_truth():
    dataset = tiny_dataset(6)
    empty = Mask(np.zeros_like(dataset[3].gt.values))
    dataset[3] = Sample(image=dataset[3].image, gt=empty, stat=0.0)
    with pytest.raises(EmptyMaskError, match=r"mask 3 of the stack is empty"):
        train(dataset, tiny_config(epochs=0), MODEL)


def test_train_zero_epochs():
    record = train(tiny_dataset(), tiny_config(epochs=0), MODEL)
    assert record.epoch_losses == [] and record.epoch_ious == []
    assert 0.0 <= record.final_iou <= 1.0
    assert record.initial_train_loss == pytest.approx(record.final_train_loss)


def test_train_zero_lr_keeps_params():
    init = init_params(MODEL).flatten()
    record = train(tiny_dataset(), tiny_config(learning_rate=0.0, epochs=1), MODEL)
    assert np.array_equal(record.final_params_flat, init)


def test_train_deterministic():
    r1 = train(tiny_dataset(), tiny_config(), MODEL)
    r2 = train(tiny_dataset(), tiny_config(), MODEL)
    assert r1.final_iou == r2.final_iou
    assert np.array_equal(r1.final_params_flat, r2.final_params_flat)
    assert [rep.total for rep in r1.epoch_losses] == [rep.total for rep in r2.epoch_losses]


def test_train_records_per_epoch():
    record = train(tiny_dataset(), tiny_config(epochs=3), MODEL)
    assert len(record.epoch_losses) == 3 and len(record.epoch_ious) == 3
    assert all(0.0 <= v <= 1.0 for v in record.epoch_ious)
    assert record.config["mode"] == "combined"


def test_run_ablation_grid_structure():
    grid = default_grid(epochs=1, seed=0)
    assert [c.mode for c in grid] == ["stats_only", "combined", "combined",
                                      "combined", "weak_only", "fully_supervised"]
    assert [c.weak_coverage for c in grid[1:4]] == [0.04, 0.08, 0.12]

    records = run_ablation_grid(tiny_dataset(), MODEL, grid[:2])
    assert len(records) == 2
    assert records[0].mode == "stats_only"
    assert records[0].config == grid[0].as_dict()


def test_grid_rerun_identical():
    grid = [AblationConfig(mode="combined", epochs=1, batch_size=4, seed=3)]
    a = run_ablation_grid(tiny_dataset(), MODEL, grid)[0]
    b = run_ablation_grid(tiny_dataset(), MODEL, grid)[0]
    assert a.final_iou == b.final_iou
    assert np.array_equal(a.final_params_flat, b.final_params_flat)


def test_train_derives_weak_masks_itself():
    plain = tiny_dataset()
    carried = [replace(s, weak=s.gt) for s in plain]  # any other valid weak mask
    cfg = tiny_config(epochs=1)
    a = train(plain, cfg, MODEL)
    b = train(carried, cfg, MODEL)
    assert all(s.weak is None for s in plain)
    assert np.array_equal(a.final_params_flat, b.final_params_flat)
    assert a.overlays
    for _, gt, weak, _ in a.overlays:
        assert np.array_equal(weak.values, weak_mask(gt, cfg.weak_coverage).values)


@pytest.mark.parametrize("epochs", [0, 2])
def test_train_scores_final_params_once(monkeypatch, epochs):
    calls = []

    def spy(params, samples, idx):
        calls.append((params.flatten(), samples, idx))
        return eval_predictions(params, samples, idx)

    eval_predictions = training._eval_predictions
    monkeypatch.setattr(training, "_eval_predictions", spy)
    record = train(tiny_dataset(), tiny_config(epochs=epochs), MODEL)
    assert len(calls) == max(epochs, 1)
    flat, samples, idx = calls[-1]
    assert np.array_equal(flat, record.final_params_flat)
    # a fresh pass on the final params reproduces every reported number
    fresh = eval_predictions(ModelParams.from_flat(MODEL, flat), samples, idx)
    report = evaluate_predictions(fresh, [samples[i] for i in idx])
    assert (record.final_iou, record.degenerate, record.degenerate_fraction,
            record.pred_mean, record.pred_std) == (
        report.mean_iou, report.degenerate, report.degenerate_fraction,
        report.pred_mean, report.pred_std)
    if epochs:
        assert record.epoch_ious[-1] == report.mean_iou
    for (_, _, _, overlay), p in zip(record.overlays, fresh):
        assert np.array_equal(overlay.values, binarize(p).values)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs calls inline."""

    made = []

    def __init__(self, max_workers):
        RecordingPool.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("jobs,n_configs,cpus,pool_workers", [
    (8, 2, 4, [2]),   # bounded by the grid
    (3, 6, 2, [2]),   # bounded by the CPUs
    (3, 6, 8, [3]),   # bounded by jobs
    (4, 1, 8, []),    # one config: no pool
    (1, 6, 8, []),    # one job: no pool
    (4, 6, None, []),  # CPU count unknown: no pool
])
def test_run_ablation_grid_bounds_workers(monkeypatch, jobs, n_configs, cpus, pool_workers):
    monkeypatch.setattr(RecordingPool, "made", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(training.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(training, "train", lambda dataset, cfg, model_config: cfg.seed)
    grid = [tiny_config(seed=k) for k in range(n_configs)]
    assert run_ablation_grid([], MODEL, grid, jobs=jobs) == list(range(n_configs))
    assert RecordingPool.made == pool_workers


@pytest.mark.parametrize("jobs", [0, -2])
def test_run_ablation_grid_rejects_jobs_below_one(jobs):
    with pytest.raises(InvalidConfigError, match="jobs"):
        run_ablation_grid([], MODEL, [tiny_config()], jobs=jobs)
