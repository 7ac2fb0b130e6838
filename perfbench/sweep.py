"""paper-sweep: the paper's own use, in process.

A closed loop with one caller cycles through the seed's rounds (each
alpha15 over Table 1, tight 8x8 and 16x16 grids, and the
power-constrained baseline of each system) through one
:class:`~repro.api.Workbench` until the run's seconds are up.  Its
timings are scaled to the reference host speed by the probe timed
before every call (``hostspeed.py``).
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

from repro.api import Workbench
from repro.errors import ReproError

import gate
import hostspeed
import layers
from common import Record, load_summary, median, own_peak_rss_mb, quality, sessions_of
from ledger import breakdown
from mix import paper_sweep_rounds, warm_requests

PROBE = Path(__file__).resolve().parent / "probe_setup.py"

#: Set-ups timed per untraced run, spread evenly through its window.
SETUPS = 5


def setup_once() -> float:
    """Time to ready: interpreter start, import, workbench, warm solves."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(PROBE)], check=True, timeout=120)
    return time.perf_counter() - start


def window(
    bench: Workbench,
    rounds,
    seconds: float,
    between: Callable[[float], None] | None = None,
) -> list[Record]:
    """Solve the seed's *rounds* in turn until *seconds* have passed.

    Every round runs whole, and every round at least once.  The
    host-speed probe runs before every call and once after the last,
    outside the timed spans, and sets each record's ``scale``.  A later
    pass's report that schedules exactly like the first pass's answer to
    the same request is replaced by that answer, so the benchmark's own
    memory stays flat while the gate still sees every distinct schedule.
    *between*, if given, is called before each round with the window's
    seconds so far; its own time does not count towards them.
    """
    records: list[Record] = []
    samples: list[tuple[float, float]] = []
    first: dict[tuple[int, int], Any] = {}
    start = time.perf_counter()
    paused = 0.0
    done = 0
    while done < len(rounds) or time.perf_counter() - start - paused < seconds:
        if between is not None:
            begun = time.perf_counter()
            between(begun - start - paused)
            paused += time.perf_counter() - begun
        previous = time.perf_counter()
        which = done % len(rounds)
        for position, request in enumerate(rounds[which]):
            took = hostspeed.probe()
            sent = time.perf_counter()
            samples.append((sent, took))
            record = Record(index=len(records), request=request, due=sent, sent=sent)
            try:
                record.report = bench.solve(request)
            except ReproError as exc:
                record.error = f"{type(exc).__name__}: {exc}"
            record.done = time.perf_counter()
            record.answers = 1
            record.spans["wall"] = record.done - sent
            record.spans["gap"] = sent - previous - took
            earlier = first.setdefault((which, position), record.report)
            if earlier is not None and sessions_of(earlier) == sessions_of(record.report):
                record.report = earlier
            previous = time.perf_counter()
            records.append(record)
        done += 1
    samples.append((time.perf_counter(), hostspeed.probe()))
    hostspeed.scale(records, samples)
    print(
        f"{len(records)} requests in {done} rounds; median probe "
        f"{median(p for _, p in samples) * 1e3:.3f} ms "
        f"(reference {hostspeed.REFERENCE_S * 1e3:.3f} ms); "
        f"unscaled p50 {median(r.latency for r in records) * 1e3:.1f} ms"
    )
    return records


def run(seed: int, seconds: float, trace: bool, toy: bool) -> tuple[dict, list[Record]]:
    bench = Workbench()
    for request in warm_requests():
        bench.solve(request)
    rounds = paper_sweep_rounds(seed, toy)
    if not trace:
        # Set-ups spread through the window sample the host's speed
        # regimes as the solves do, rather than the few seconds before.
        setups: list[float] = []
        wanted = 1 if toy else SETUPS

        def set_up_when_due(elapsed: float) -> None:
            if len(setups) < wanted and elapsed >= len(setups) * seconds / wanted:
                setups.append(setup_once())

        records = window(bench, rounds, seconds, set_up_when_due)
        rss = own_peak_rss_mb()
        gate.check(records)
        # One caller: the window's time is the scaled time spent in solve.
        summary = load_summary(records, sum(r.scaled_latency for r in records))
        metrics = {
            **summary,
            "slo_rps": summary["goodput_rps"],
            **quality(r.report for r in records[: sum(map(len, rounds))]),
            "rss_peak_mb": rss,
            "setup_s": median(setups),
        }
        return metrics, records

    untraced = window(bench, rounds, seconds / 2)
    before = bench.cache.stats
    records = window(bench, rounds, seconds)
    after = bench.cache.stats
    gate.check(records)
    layers.replay_window(records)
    metrics = breakdown(
        records,
        tcp=False,
        cache_counts={
            "hits": after.hits - before.hits,
            "misses": after.misses - before.misses,
        },
        untraced_p50_s=median(r.scaled_latency for r in untraced),
    )
    return metrics, records
