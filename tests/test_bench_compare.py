"""scripts/bench_compare.py on two fake checkouts whose perfbench/run.py is a stub."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"

# prints perfbench's three lines; untraced, work_per_s is 100 + seed; traced, each
# per-layer metric is 50 - seed, except zero_ms, which reads 0; BONUS is added to
# each. The seeds in CRASH exit 1 while those in WRONG report "correct": false
STUB = """\
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
trace = sys.argv[sys.argv.index("--trace") + 1] == "1"
if seed in CRASH:
    print("Traceback: boom on seed", seed, file=sys.stderr)
    sys.exit(1)
print("machine " + json.dumps({"cpu": "stub", "seed": seed}))
print("detail " + json.dumps({"workload": "w"}))
if trace:
    metrics = {name: {"value": 50.0 - seed + BONUS, "unit": "ms"} for name in ("up", "down")}
    metrics["zero_ms"] = {"value": 0.0, "unit": "ms"}
else:
    metrics = {"work_per_s": {"value": 100.0 + seed + BONUS, "unit": "1/s"}}
print(json.dumps({"correct": seed not in WRONG, "attempted": 1, "failed": 0,
                  "metrics": metrics}))
"""


@pytest.fixture
def bench_compare(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "WORKLOADS", ("w",))
    monkeypatch.setattr(mod, "PAIRS", 4)
    return mod


def checkout(root: Path, crash=(), wrong=(), bonus=0.0) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        f"CRASH, WRONG, BONUS = {set(crash) or 'set()'}, {set(wrong) or 'set()'}, {bonus}\n"
        + STUB)
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "work_per_s", "better": "higher"}],
         "per_layer": [{"name": "up", "better": "higher"}, {"name": "down", "better": "lower"},
                       {"name": "zero_ms", "better": "lower"}]}))
    return root


def compare(bench_compare, tmp_path, parent, change):
    out = tmp_path / "bench.json"
    code = bench_compare.main(["--parent", str(parent), "--change", str(change),
                               "--out", str(out)])
    return code, json.loads(out.read_text())["workloads"]["w"]


def test_clean_runs_exit_0(bench_compare, tmp_path):
    code, w = compare(bench_compare, tmp_path, checkout(tmp_path / "p"),
                      checkout(tmp_path / "c", bonus=1.0))
    assert code == 0
    assert w["median"]["parent"]["work_per_s"] == 108.5  # seeds 7..10
    assert w["change_wins"] == {"work_per_s": 4}
    assert w["runs_failed"] == {"parent": 0, "change": 0}
    assert w["runs_attempted"] == {"parent": 8, "change": 8}  # 4 pairs, 4 traced pairs


def test_traced_pairs_give_per_layer_medians_and_wins(bench_compare, tmp_path):
    # the change adds 1 to every per-layer metric: a win where higher is better
    code, w = compare(bench_compare, tmp_path, checkout(tmp_path / "p"),
                      checkout(tmp_path / "c", bonus=1.0))
    assert code == 0
    trace = w["trace"]
    for side in ("parent", "change"):
        assert [(r["seed"], r["trace"]) for r in trace["runs"][side]] == [
            (7, 1), (8, 1), (9, 1), (10, 1)]
    assert trace["median"]["parent"] == {"up": 41.5, "down": 41.5, "zero_ms": 0.0}
    assert trace["median"]["change"] == {"up": 42.5, "down": 42.5, "zero_ms": 0.0}
    assert trace["change_wins"] == {"up": 4, "down": 0, "zero_ms": 0}
    assert trace["change_over_parent"] == {"up": 42.5 / 41.5, "down": 42.5 / 41.5}
    assert trace["parent_iqr"] == {"up": 1.5, "down": 1.5, "zero_ms": 0.0}


def test_broken_runs_are_recorded_and_left_out(bench_compare, tmp_path):
    # seed 8 crashes on the change's side, seed 9 is incorrect on the parent's
    code, w = compare(bench_compare, tmp_path, checkout(tmp_path / "p", wrong={9}),
                      checkout(tmp_path / "c", crash={8}, bonus=1.0))
    assert code == 1
    assert w["runs_failed"] == {"parent": 2, "change": 2}  # an untraced and a traced run
    for crashed, trace in zip(w["broken"]["change"], (0, 1)):
        assert crashed["seed"] == 8 and crashed["returncode"] == 1
        assert crashed["trace"] == trace
        assert crashed["stderr_tail"] == ["Traceback: boom on seed 8"]
    for wrong, trace in zip(w["broken"]["parent"], (0, 1)):
        assert wrong["seed"] == 9 and wrong["returncode"] == 0 and wrong["correct"] is False
        assert wrong["trace"] == trace
    # medians over the good runs only; only pairs with two good runs count
    assert w["median"]["parent"]["work_per_s"] == 108.0   # seeds 7, 8, 10
    assert w["median"]["change"]["work_per_s"] == 110.0   # seeds 7, 9, 10
    assert w["change_wins"] == {"work_per_s": 2}
    assert w["trace"]["median"]["parent"]["down"] == 42.0  # seeds 7, 8, 10
    assert w["trace"]["change_wins"] == {"up": 2, "down": 0, "zero_ms": 0}
