"""Host-speed probes: a fixed piece of work timed between the program's calls.

The shared host this benchmark runs on changes speed in regimes that
last from a second to minutes, separately on each CPU: a fixed
interpreter loop swings by up to 1.5x, in CPU time as much as in wall
time, so the slowdown is not the scheduler taking the CPU away but each
instruction running slower.  The workloads time a probe beside their
calls into the program and scale each request's latency by how fast the
host ran around it, so their timings read as on a host whose probe
takes :data:`REFERENCE_S`.

* In process (paper-sweep) the probe runs on the caller's thread just
  before each call, on the CPU the call is about to run on
  (:func:`probe`).
* Over TCP the program runs in other processes on either CPU, so the
  load generator times the probe once pinned to each CPU, in thread CPU
  time so that waiting behind the program's own work does not count
  (:func:`probe_cpus`).

Either way :func:`scale` reads each request's speed from the probes
timed around it.

The probe is the benchmark's own code, never the program's: a change to
the program cannot move it.  It mixes interpreter work with small NumPy
operations, as the scheduler does, and calls no BLAS routine, so the
program's BLAS threading cannot reach it either.
"""

from __future__ import annotations

import bisect
import os
import time
from typing import Sequence

import numpy as np

from common import Record, median

#: Probe time (seconds) the scaled timings refer to: about the median
#: probe of an unloaded 2-vCPU host.
REFERENCE_S = 1.0e-3

#: Probe samples on each side of a request that its speed is read from.
NEIGHBOURS = 8

_LOOP = 8_000
_ARRAY_STEPS = 60
_VECTOR = np.linspace(-1.0, 1.0, 40)


def _work() -> None:
    total = 0
    for i in range(_LOOP):
        total += i * i % 7
    x = _VECTOR
    for _ in range(_ARRAY_STEPS):
        x = np.maximum(x * 0.5 + 0.1, -1.0)
        x = x - x.mean()
    if total < 0 or not np.isfinite(x).all():
        raise RuntimeError("host-speed probe computed nonsense")


def probe() -> float:
    """Run the probe once on the calling thread; its wall time in seconds."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def probe_cpus() -> float:
    """Mean CPU time (seconds) of the probe run once pinned to each CPU."""
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            start = time.thread_time()
            _work()
            times.append(time.thread_time() - start)
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times)


def scale(records: Sequence[Record], samples: Sequence[tuple[float, float]]) -> None:
    """Set each answered record's ``scale`` from ``(time, probe)`` samples.

    A record's speed is the median of the :data:`NEIGHBOURS` samples on
    each side of the middle of its latency.
    """
    if not samples:
        raise ValueError("no host-speed samples in the window")
    ordered = sorted(samples)
    times = [t for t, _ in ordered]
    for record in records:
        if record.answers:
            middle = bisect.bisect(times, (record.due + record.done) / 2)
            nearby = ordered[max(0, middle - NEIGHBOURS) : middle + NEIGHBOURS]
            record.scale = REFERENCE_S / median(p for _, p in nearby)
