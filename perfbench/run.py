"""statseg benchmark: one workload per run, result as JSON on the last stdout line.

    python3 perfbench/run.py --workload train64 --seed 1 --seconds 20 --trace 0

Run from the root of a statseg checkout; the package is imported from
``src/`` of that checkout. ``--trace 0`` times the workload untraced and
prints the end-to-end metrics; ``--trace 1`` first runs it with spans
around every layer boundary, restores the package, runs it again
untraced, and prints the per-layer metrics plus the tracing overhead.
BLAS is pinned to one thread (see README.md).
"""
from __future__ import annotations

import os

# must precede the first numpy import, here or in statseg
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import clock  # noqa: E402  (perfbench/ is sys.path[0] when run as a script)
import oracles  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
MODULES = ("grid", "morphology", "losses", "model", "data", "training",
           "evaluation", "pgm", "cli")


def _load_statseg():
    src = ROOT / "src"
    if not (src / "statseg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no statseg package under {src}; run from a statseg checkout")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"statseg.{name}") for name in MODULES}
    if Path(mods["model"].__file__).resolve().parent != src / "statseg":
        sys.exit(f"perfbench: imported statseg from {mods['model'].__file__}, not {src}")
    return mods


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record(seed: int) -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "seed": seed}


def measure(wl, seconds: float, setups: int, min_rounds: int, max_rounds=None,
            first_round: int = 0):
    """Set up `setups` times, prepare, then run rounds for `seconds`."""
    setup_samples = []
    for i in range(setups):
        wl.tracer.round = -1
        t = wl.clock.start()
        wl.setup(i)
        wl.clock.stop(t, 1, setup_samples)
        with wl.tracer.quiet():
            wl.check_setup()
    with wl.tracer.quiet():
        wl.prepare()
    rounds = []
    t_start = time.perf_counter()
    while len(rounds) < min_rounds or (
            time.perf_counter() - t_start < seconds
            and (max_rounds is None or len(rounds) < max_rounds)):
        k = first_round + len(rounds)
        wl.tracer.round = k
        rounds.append(wl.round(k))
    return setup_samples, rounds


def samples(rounds, kind: str) -> list:
    return [sample for r in rounds for sample in getattr(r, kind)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    S = _load_statseg()

    ns = types.SimpleNamespace(**S)
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)  # left by an earlier, killed run
    work_dir.mkdir(parents=True)
    try:
        if args.trace:
            tracer = tr.Tracer()
            wl = WORKLOADS[args.workload](ns, args.seed, work_dir, tracer)
            t0 = time.perf_counter()
            tr.install(tracer, S)
            try:
                _, traced = measure(wl, 0.0, 1, wl.trace_rounds, wl.trace_rounds)
            finally:
                tracer.restore()
            leftovers = tr.leftover_wrappers(S)
            if leftovers:
                wl.fail(f"tracing wrappers left after restore: {leftovers}")
            wl.tracer = tr.NullTracer()
            remaining = args.seconds - (time.perf_counter() - t0)
            _, untraced = measure(wl, remaining, 1, wl.trace_rounds,
                                  first_round=len(traced))
            rounds = traced + untraced
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.csv")
            metrics = tr.layer_metrics(
                tracer, oracles.conv_gflop_per_step(*wl.conv_shape()))
            overhead = (clock.scaled_rate(samples(untraced, "work"))
                        / clock.scaled_rate(samples(traced, "work")) - 1.0)
            metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        else:
            wl = WORKLOADS[args.workload](ns, args.seed, work_dir, tr.NullTracer())
            setups, rounds = measure(wl, args.seconds, SETUP_REPEATS, wl.min_rounds)
            work, infer = samples(rounds, "work"), samples(rounds, "infer")
            metrics = {
                "setup_s": (clock.scaled_seconds(setups), "s"),
                "work_per_s": (clock.scaled_rate(work), "1/s"),
                "infer_per_s": (clock.scaled_rate(infer), "images/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            wl.detail.update(
                raw_setup_s=statistics.median(s for _, s, _ in setups),
                raw_work_per_s=clock.raw_rate(work), raw_infer_per_s=clock.raw_rate(infer),
                slowdown=statistics.median(slow for _, _, slow in work + infer))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in wl.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print("machine " + json.dumps(machine_record(args.seed)))
    print("detail " + json.dumps({
        "workload": args.workload, "rounds": len(rounds),
        "work_samples": len(samples(rounds, "work")),
        "infer_samples": len(samples(rounds, "infer")), **wl.detail}))
    print(json.dumps({
        "correct": not wl.problems,
        "attempted": wl.prepared_ops + sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
