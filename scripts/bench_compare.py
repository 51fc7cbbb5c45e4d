#!/usr/bin/env python3
"""Run perfbench on two statseg checkouts in alternation and write one JSON file.

    git archive <parent-commit> | tar -x -C /tmp/parent
    python3 scripts/bench_compare.py --parent /tmp/parent --change . --out BENCH_5.json

Each checkout runs its own ``perfbench/run.py``, so each imports its own
``src/``. For every workload the two checkouts run ``PAIRS`` pairs of
untraced ``SECONDS``-second runs, pair k on seed ``SEED + k`` for both sides,
and the side that runs first alternates. Then they run ``PAIRS`` traced pairs
the same way, with ``--trace 1 --seconds TRACE_SECONDS``, for the per-layer
metrics. The output keeps perfbench's result lines as printed (the
``machine`` and ``detail`` lines parsed from JSON) plus, per workload, the
median of each end-to-end metric and the change/parent ratio (left out where
the parent's median is 0). For each end-to-end metric that ``BENCHMARK.json``
declares, it also writes ``change_wins``, the number of pairs in which the
change beat the parent in the declared ``better`` direction (a tie counts for
neither side), and ``parent_iqr``, the interquartile range of the parent's
runs (inclusive quartiles, as numpy's default percentile). Under ``trace``,
each workload has the same four entries for the traced pairs, over the
``per_layer`` metrics that ``BENCHMARK.json`` declares.

A run that exits non-zero, prints no result or reports ``"correct": false``
is kept out of the medians, the win counts and the quartiles (a pair counts
only when both of its runs are good). Each workload lists such runs under
``broken`` per side, with seed, exit code and the last stderr lines, and
``runs_failed`` / ``runs_attempted`` per side. The JSON is written anyway;
the script then exits 1 if any run was broken.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("train64", "gradcheck8", "ablate_disk")
PAIRS = 10
SECONDS = 20.0
TRACE_SECONDS = 10.0
SEED = 7
STDERR_TAIL = 20        # stderr lines kept for each broken run


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    out = {"seed": seed, "trace": trace, "returncode": proc.returncode, "result": None}
    lines = proc.stdout.splitlines()
    try:
        for line in lines:
            if line.startswith(("machine ", "detail ")):
                key, _, doc = line.partition(" ")
                out[key] = json.loads(doc)
        out["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        pass
    out["stderr"] = proc.stderr.splitlines()
    out["ok"] = proc.returncode == 0 and (out["result"] or {}).get("correct") is True
    print(f"{checkout.name or checkout} {workload} seed {seed} trace {trace}: "
          f"exit {proc.returncode}, ok={out['ok']}", file=sys.stderr, flush=True)
    return out


def broken(runs) -> list:
    return [{"seed": r["seed"], "trace": r["trace"], "returncode": r["returncode"],
             "correct": (r["result"] or {}).get("correct"),
             "stderr_tail": r["stderr"][-STDERR_TAIL:]} for r in runs if not r["ok"]]


def medians(runs) -> dict:
    good = [r for r in runs if r["ok"]]
    if not good:
        return {}
    return {name: statistics.median(values(good, name))
            for name in good[0]["result"]["metrics"]}


def value(run_, name) -> float:
    return run_["result"]["metrics"][name]["value"]


def values(runs, name) -> list:
    return [value(r, name) for r in runs]


def change_wins(runs: dict, better: dict) -> dict:
    """Pairs the change won per metric; better maps a name to "higher" or "lower"."""
    sign = {"higher": 1.0, "lower": -1.0}
    pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"]) if p["ok"] and c["ok"]]
    return {name: sum(sign[way] * (value(c, name) - value(p, name)) > 0 for p, c in pairs)
            for name, way in better.items()}


def iqr(runs, names) -> dict:
    good = [r for r in runs if r["ok"]]
    out = {}
    for name in names:
        if len(good) < 2:
            out[name] = None
            continue
        q1, _, q3 = statistics.quantiles(values(good, name), n=4, method="inclusive")
        out[name] = q3 - q1
    return out


def alternating_pairs(checkouts: dict, workload: str, seconds: float, trace: int) -> dict:
    """PAIRS runs per side, pair k on seed SEED + k, the side that runs first alternating."""
    runs = {side: [] for side in checkouts}
    for k in range(PAIRS):
        for side in sorted(checkouts, reverse=k % 2 == 1):
            runs[side].append(run(checkouts[side], workload, SEED + k, seconds, trace))
    return runs


def compare(runs: dict, declared: list) -> dict:
    """Medians, change/parent ratios, win counts and the parent's spread of paired runs,
    with each declared metric's direction; declared is a BENCHMARK.json metric list."""
    med = {side: medians(r) for side, r in runs.items()}
    better = {m["name"]: m["better"] for m in declared
              if m["name"] in med["parent"] or m["name"] in med["change"]}
    return {
        "median": med,
        "change_over_parent": {name: med["change"][name] / med["parent"][name]
                               for name in med["parent"]
                               if name in med["change"] and med["parent"][name]},
        "change_wins": change_wins(runs, better),
        "parent_iqr": iqr(runs["parent"], better),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    doc = {"command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace {0,1}",
           "pairs": PAIRS, "seconds": SECONDS, "trace_seconds": TRACE_SECONDS,
           "workloads": {}}
    for wl in WORKLOADS:
        runs = alternating_pairs(checkouts, wl, SECONDS, 0)
        traced = alternating_pairs(checkouts, wl, TRACE_SECONDS, 1)
        machines = [r["machine"] for r in runs["change"] + runs["parent"] if "machine" in r]
        if machines:
            doc.setdefault("machine", machines[0])
        attempted = {side: r + traced[side] for side, r in runs.items()}
        doc["workloads"][wl] = {
            **compare(runs, declared["end_to_end"]),
            "runs_attempted": {side: len(r) for side, r in attempted.items()},
            "runs_failed": {side: sum(not x["ok"] for x in r) for side, r in attempted.items()},
            "broken": {side: broken(r) for side, r in attempted.items()},
            "runs": runs,
            "trace": {**compare(traced, declared["per_layer"]), "runs": traced},
        }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    n_broken = sum(sum(w["runs_failed"].values()) for w in doc["workloads"].values())
    if n_broken:
        print(f"{n_broken} perfbench runs were broken; see 'broken' in {args.out}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
