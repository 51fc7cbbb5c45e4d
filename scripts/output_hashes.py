#!/usr/bin/env python3
"""Print the output hash of one fixed training run at one and at two BLAS threads.

    python3 scripts/output_hashes.py

The run is the acceptance suite's 30-epoch `combined` run at seed 2: the
standard 64x64 benchmark dataset, C=4, batch 8. Each thread count runs in its
own subprocess, because OpenBLAS reads OPENBLAS_NUM_THREADS when numpy loads.
For each it prints the first 16 hex digits of the sha256 of the final
parameter vector's float64 bytes and the final IoU. A change that keeps the
output bits prints the same lines as its parent; OpenBLAS's own output bits
depend on the thread count, so the two lines differ from each other.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREADS = (1, 2)
MODE = "combined"
SEED = 2
EPOCHS = 30
BATCH_SIZE = 8
BASE_CHANNELS = 4
HASH_DIGITS = 16


def output_hash(synth, model_config, ablation) -> str:
    """'<sha256 prefix of final_params_flat> <final IoU>' of one training run."""
    from statseg.data import generate_synthetic
    from statseg.training import train

    record = train(generate_synthetic(synth), ablation, model_config)
    digest = hashlib.sha256(record.final_params_flat.astype("<f8").tobytes()).hexdigest()
    return f"{digest[:HASH_DIGITS]} {record.final_iou:.6f}"


def benchmark_run_hash() -> str:
    from statseg.data import standard_benchmark_config
    from statseg.model import ModelConfig
    from statseg.training import AblationConfig

    synth = standard_benchmark_config(seed=SEED)
    return output_hash(synth, ModelConfig(synth.shape, base_channels=BASE_CHANNELS, seed=SEED),
                       AblationConfig(mode=MODE, epochs=EPOCHS, batch_size=BATCH_SIZE,
                                      seed=SEED))


CHILD = ("import sys; sys.path[:0] = [{src!r}, {scripts!r}]; "
         "import output_hashes; print(output_hashes.benchmark_run_hash())")


def main() -> int:
    code = CHILD.format(src=str(SRC), scripts=str(Path(__file__).resolve().parent))
    for threads in THREADS:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        print(f"OPENBLAS_NUM_THREADS={threads} {MODE} seed {SEED}, {EPOCHS} epochs: "
              f"{proc.stdout.strip()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
