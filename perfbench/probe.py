"""A fixed reference computation that measures how fast the host runs now.

On a shared host the same code runs up to 2x slower for tens of seconds
at a time, while neighbours load the machine. The benchmark runs this
probe between the steps it times and reports each step's time in
reference seconds: measured seconds x (REF_S / the probe time measured
around it) ** ELASTICITY. The probe is plain Python, small numpy calls and
rows formatted to text and parsed back, like microloc's own inner loops
and trace files, and never imports microloc, so a change to the program
cannot change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.015  # the probe's time on the host the benchmark was tuned on
# How much of the probe's swing microloc's steps follow: per 10 s window,
# log(step time) against log(probe time) had slopes 0.62-0.83 for fixes,
# a CSV load + filter + JSON save, and interpreter set-up; and of 0.5-1.0,
# 0.75 left ten runs of each workload spreading least overall.
ELASTICITY = 0.75
BURST = 3  # probes per burst; a burst reports their median


def _work() -> float:
    acc: dict[int, float] = {}
    for i in range(9000):
        acc[i & 127] = acc.get(i & 127, 0.0) + i * 0.5
    v = np.arange(8.0)
    for _ in range(600):
        v = np.maximum(np.linalg.norm(v - 1.0) * v / 100.0, 1e-3)
    # rows to text and back, as trace files are written and read
    rows = [(i, f"b{i % 20:02d}", -60.0 - (i % 37) * 0.5) for i in range(2500)]
    text = "\n".join(f"{t},{b},{r:.1f}" for t, b, r in rows)
    parsed = [(int(t), b, float(r)) for t, b, r in (line.split(",") for line in text.split("\n"))]
    return sum(acc.values()) + float(v.sum()) + len(parsed)


def burst() -> float:
    """Median seconds of BURST probe calls."""
    times = []
    for _ in range(BURST):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def normalise(times: list[float], bursts: list[float], every: int = 1) -> list[float]:
    """Express times in reference seconds.

    times[i] ran after burst i // every and before the next one; the mean of
    those two bursts is the probe time it is scaled by.
    """
    return [t * (2.0 * REF_S / (bursts[i // every] + bursts[i // every + 1])) ** ELASTICITY
            for i, t in enumerate(times)]
