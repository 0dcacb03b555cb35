"""A fixed machine-speed probe, run between the timed rounds.

The shared machine the benchmark runs on changes speed by tens of percent
over minutes, for every kind of code alike, so a bare wall time mostly
measures when a run happened. The probe is a fixed piece of work that does
not touch nlbd: a pure-Python integer loop, float formatting of numpy
scalars (as a CSV writer does), numpy broadcasting over arrays a few
megabytes large (as the search kernels do) and small matrix products.
Timed right before and right after each round, it tells how fast the
machine ran then, and the round's time is scaled to the probe's reference
time. A change to nlbd moves the scaled time exactly as it moves the raw
time, because the probe's work does not change with it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The probe's time on the reference machine (see README.md). Scaled times
# are in seconds of that machine running at that speed.
REFERENCE_S = 0.023

_rng = np.random.default_rng(20251124)
_ROWS = _rng.random((64, 256))
_COLS = _rng.random((256, 256))
_SQUARE = _rng.random((96, 96))
_VALUES = _rng.random(600)


def _work() -> float:
    total = 0
    for i in range(40_000):
        total += i * i
    for i in range(len(_VALUES)):
        total += len(f"{_VALUES[i]:.12g},{_VALUES[i] * 3:.12g},{'true' if i & 1 else 'false'}\n")
    for lo in range(0, len(_ROWS), 16):
        block = _ROWS[lo : lo + 16, None, :] + _COLS[None, :, :]
        total += int(block.argmax(-1).sum()) + int(block.max(-1).sum())
    square = _SQUARE
    for _ in range(4):
        square = square @ _SQUARE
        square /= square.max()
    return total + float(square.sum())


def probe(calls: int = 1) -> float:
    """Seconds one run of the fixed probe work takes now: the median of
    `calls` runs."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into reference seconds."""
    return REFERENCE_S / ((before + after) / 2)
