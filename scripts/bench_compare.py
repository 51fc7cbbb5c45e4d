#!/usr/bin/env python3
"""Run perfbench on two statseg checkouts in alternation and write one JSON file.

    git archive <parent-commit> | tar -x -C /tmp/parent
    python3 scripts/bench_compare.py --parent /tmp/parent --change . --out BENCH_5.json

Each checkout runs its own ``perfbench/run.py``, so each imports its own
``src/``. For every workload the two checkouts run ``PAIRS`` pairs of
untraced ``SECONDS``-second runs, pair k on seed ``SEED + k`` for both sides,
and the side that runs first alternates. Then each runs once with
``--trace 1 --seconds TRACE_SECONDS --seed SEED`` for the per-layer metrics.
The output keeps perfbench's result lines as printed (the ``machine`` and
``detail`` lines parsed from JSON) plus, per workload, the median of each
end-to-end metric and the change/parent ratio. For each end-to-end metric
that ``BENCHMARK.json`` declares, it also writes ``change_wins``, the number
of pairs in which the change beat the parent in the declared ``better``
direction (a tie counts for neither side), and ``parent_iqr``, the
interquartile range of the parent's runs (inclusive quartiles, as numpy's
default percentile).
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


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    out = {}
    for line in proc.stdout.splitlines():
        if line.startswith(("machine ", "detail ")):
            key, _, doc = line.partition(" ")
            out[key] = json.loads(doc)
    out["result"] = json.loads(proc.stdout.splitlines()[-1])
    out["stderr"] = proc.stderr.splitlines()
    print(f"{checkout.name or checkout} {workload} seed {seed} trace {trace}: "
          f"correct={out['result']['correct']}", file=sys.stderr, flush=True)
    return out


def medians(runs) -> dict:
    names = runs[0]["result"]["metrics"]
    return {name: statistics.median(r["result"]["metrics"][name]["value"] for r in runs)
            for name in names}


def values(runs, name) -> list:
    return [r["result"]["metrics"][name]["value"] for r in runs]


def change_wins(runs: dict, better: dict) -> dict:
    """Pairs the change won per metric; better maps a name to "higher" or "lower"."""
    sign = {"higher": 1.0, "lower": -1.0}
    return {name: sum(sign[way] * (c - p) > 0 for p, c in
                      zip(values(runs["parent"], name), values(runs["change"], name)))
            for name, way in better.items()}


def iqr(runs, names) -> dict:
    out = {}
    for name in names:
        q1, _, q3 = statistics.quantiles(values(runs, name), n=4, method="inclusive")
        out[name] = q3 - q1
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    doc = {"command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace {0,1}",
           "pairs": PAIRS, "seconds": SECONDS, "workloads": {}}
    for wl in WORKLOADS:
        runs = {side: [] for side in checkouts}
        for k in range(PAIRS):
            for side in sorted(checkouts, reverse=k % 2 == 1):
                runs[side].append(run(checkouts[side], wl, SEED + k, SECONDS, 0))
        traced = {side: run(path, wl, SEED, TRACE_SECONDS, 1)
                  for side, path in checkouts.items()}
        med = {side: medians(r) for side, r in runs.items()}
        better = {m["name"]: m["better"] for m in declared if m["name"] in med["parent"]}
        doc.setdefault("machine", runs["change"][0]["machine"])
        doc["workloads"][wl] = {
            "median": med,
            "change_over_parent": {name: med["change"][name] / med["parent"][name]
                                   for name in med["parent"]},
            "change_wins": change_wins(runs, better),
            "parent_iqr": iqr(runs["parent"], better),
            "runs": runs,
            "trace": traced,
        }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
