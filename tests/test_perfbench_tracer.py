"""The benchmark's tracer must still find every statseg attribute it wraps."""
import ast
import importlib
import importlib.util
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
