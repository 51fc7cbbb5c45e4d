"""The benchmark's tracer must still find every statseg attribute it wraps."""
import ast
import contextlib
import importlib
import importlib.util
import io
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_module_names():
    """The MODULES tuple of perfbench/run.py, read without running the script."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "MODULES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no MODULES")


def test_tracer_installs_and_restores_cleanly():
    tr = _load_tracer()
    names = _traced_module_names()
    assert len(names) == 9
    mods = {name: importlib.import_module(f"statseg.{name}") for name in names}
    tracer = tr.Tracer()
    try:
        tr.install(tracer, mods)
        assert "model.ModelParams.from_flat" in tr.leftover_wrappers(mods)
    finally:
        tracer.restore()
    assert tr.leftover_wrappers(mods) == []


def test_tracer_records_a_training_run():
    """A traced name that a refactor left in place but no longer calls shows as 0 calls."""
    tr = _load_tracer()
    mods = {name: importlib.import_module(f"statseg.{name}") for name in _traced_module_names()}
    data, grid, model, training = mods["data"], mods["grid"], mods["model"], mods["training"]
    samples = data.generate_synthetic(data.SynthConfig(grid.GridShape(8, 8), n_samples=4, seed=0))
    tracer = tr.Tracer()
    try:
        tr.install(tracer, mods)
        training.train(samples, training.AblationConfig(mode="combined", epochs=1, batch_size=2),
                       model.ModelConfig(grid.GridShape(8, 8), base_channels=2))
    finally:
        tracer.restore()
    assert tr.leftover_wrappers(mods) == []
    for span in ("losses.total_loss", "training.loss_pass", "training.eval_pass",
                 "evaluation.evaluate", "grid.construct", "morphology.weak_mask",
                 "model.forward_batch", "training.adam"):
        assert tracer.stats.get(span, [0])[0] > 0, span


def test_tracer_records_the_train_command(tmp_path):
    """statseg train runs the shared ablate path: every span the benchmark reads records."""
    tr = _load_tracer()
    mods = {name: importlib.import_module(f"statseg.{name}") for name in _traced_module_names()}
    config = tmp_path / "train.json"
    config.write_text(json.dumps({
        "synth": {"height": 8, "width": 8, "n_samples": 4, "seed": 0},
        "model": {"height": 8, "width": 8, "base_channels": 2},
        "ablation": {"mode": "combined", "epochs": 1, "batch_size": 2},
        "out_dir": str(tmp_path / "out")}))
    tracer = tr.Tracer()
    try:
        tr.install(tracer, mods)
        with contextlib.redirect_stdout(io.StringIO()):
            assert mods["cli"].main(["train", "--config", str(config)]) == 0
    finally:
        tracer.restore()
    assert tr.leftover_wrappers(mods) == []
    for span in ("cli.train", "training.train", "evaluation.emit_report",
                 "model.checkpoint_write", "model.params_from_flat"):
        assert tracer.stats.get(span, [0])[0] > 0, span


def test_tracer_records_the_pgm_read_path(tmp_path):
    """A dataset_dir run reads its PGM pairs through data.load_dataset and data.read_pgm."""
    tr = _load_tracer()
    mods = {name: importlib.import_module(f"statseg.{name}") for name in _traced_module_names()}
    data, grid = mods["data"], mods["grid"]
    for k, sample in enumerate(data.generate_synthetic(
            data.SynthConfig(grid.GridShape(8, 8), n_samples=4, seed=0))):
        data.save_sample(sample, tmp_path / "ds", f"{k:04d}")
    config = tmp_path / "train.json"
    config.write_text(json.dumps({
        "dataset_dir": str(tmp_path / "ds"),
        "model": {"height": 8, "width": 8, "base_channels": 2},
        "ablation": {"mode": "combined", "epochs": 1, "batch_size": 2},
        "out_dir": str(tmp_path / "out")}))
    tracer = tr.Tracer()
    try:
        tr.install(tracer, mods)
        with contextlib.redirect_stdout(io.StringIO()):
            assert mods["cli"].main(["train", "--config", str(config)]) == 0
    finally:
        tracer.restore()
    assert tr.leftover_wrappers(mods) == []
    assert tracer.stats.get("data.load_dataset", [0])[0] == 1
    assert tracer.stats.get("pgm.read", [0])[0] == 8


def test_tracer_records_the_inference_path():
    """Batch-1 forwards, then their scoring: each conv layer once per image, none unnamed."""
    tr = _load_tracer()
    mods = {name: importlib.import_module(f"statseg.{name}") for name in _traced_module_names()}
    data, grid, model = mods["data"], mods["grid"], mods["model"]
    samples = data.generate_synthetic(data.SynthConfig(grid.GridShape(8, 8), n_samples=3, seed=0))
    params = model.init_params(model.ModelConfig(grid.GridShape(8, 8), base_channels=2))
    tracer = tr.Tracer()
    try:
        tr.install(tracer, mods)
        preds = [model.forward(params, s.image).pred for s in samples]
        report = mods["evaluation"].evaluate_predictions(preds, samples)
    finally:
        tracer.restore()
    assert tr.leftover_wrappers(mods) == []
    assert len(report.ious) == 3
    for span in ("model.forward", "model.forward_batch", "evaluation.evaluate"):
        assert tracer.stats.get(span, [0])[0] > 0, span
    for layer in ("enc1", "enc2", "enc3", "dec1", "dec2"):
        assert tracer.stats.get(f"model.conv.{layer}.fwd", [0])[0] == 3, layer
    assert "model.conv.other.fwd" not in tracer.stats
