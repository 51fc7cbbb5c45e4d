"""Timed samples, each bracketed by a fixed calibration loop.

Other tenants of a shared host slow whole stretches of a run by 20-60%, so
raw rates move between runs far more than any bound worth keeping. A
fixed calibration loop, run just before and just after each sample, slows
down with them. Each sample records its slowdown: calibration time over
the loop's time on the reference host. Its rate is multiplied by that
factor, which gives the rate the sample would have had on the reference
host. Nothing in the loop touches statseg, so a change to the package
moves the scaled rates as much as the raw ones.

The loop has an interpreter part (a small matrix product, small array
ops and a generator) and, for workloads whose arrays spill out of the
core's caches, a memory part (streaming passes over one 2 MB buffer). A
90 s comparison found that the interpreter part tracks the 8x8 forward
pass best, and the two parts together track the 64x64 forward + backward
pass best; see README.md.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REF_INTERP_S = 0.0035    # the parts' times on the reference host (README.md)
REF_MEMORY_S = 0.0050

_A = np.random.default_rng(0).standard_normal((64, 64))
_M = np.random.default_rng(1).standard_normal(256 * 1024)
_T = np.empty_like(_M)   # preallocated: the loop must not page-fault fresh buffers


def _interp_loop():
    acc = 0.0
    for _ in range(200):
        b = _A @ _A
        acc += float(np.maximum(b, 0.0).sum())
        acc += sum(i * i for i in range(100))
    return acc


def _memory_loop():
    acc = 0.0
    for _ in range(12):
        np.multiply(_M, 1.0001, out=_T)
        np.maximum(_T, 0.0, out=_T)
        acc += float(_T.sum())
    return acc


class Clock:
    def __init__(self, memory: bool):
        self.memory = memory
        self.ref_s = REF_INTERP_S + (REF_MEMORY_S if memory else 0.0)

    def slowdown(self) -> float:
        t0 = time.perf_counter()
        _interp_loop()
        if self.memory:
            _memory_loop()
        return (time.perf_counter() - t0) / self.ref_s

    def start(self):
        slow = self.slowdown()
        return slow, time.perf_counter()

    def stop(self, started, units, samples: list):
        """Append (units, seconds, slowdown) for the sample begun at `started`."""
        seconds = time.perf_counter() - started[1]
        samples.append((units, seconds, 0.5 * (started[0] + self.slowdown())))


def scaled_rate(samples: list) -> float:
    """Median over samples of units per second on the reference host; 0 if none."""
    return statistics.median(u / s * slow for u, s, slow in samples) if samples else 0.0


def raw_rate(samples: list) -> float:
    return statistics.median(u / s for u, s, _ in samples) if samples else 0.0


def scaled_seconds(samples: list) -> float:
    """Median over samples of seconds on the reference host."""
    return statistics.median(s / slow for _, s, slow in samples)
