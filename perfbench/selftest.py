"""Toy-scale self-test of the benchmark harness.

Runs every workload named in ``BENCHMARK.json`` untraced and traced,
with tiny decks and one set-up each (``--toy``), and checks that:

* the metric tables in ``ledger.py`` match ``BENCHMARK.json``;
* each run exits 0 and its last line is a correct result whose metrics
  are exactly the ones ``BENCHMARK.json`` lists for that mode, each
  with its unit and a finite value.

Run from the repository root; it takes about a minute::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _check_tables(spec: dict) -> list[str]:
    sys.path.insert(0, str(HERE))
    from ledger import END_TO_END, PER_LAYER

    problems = []
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        if listed != list(table):
            problems.append(f"{key} in BENCHMARK.json differs from ledger.py")
    return problems


def _check_run(spec: dict, workload: str, trace: int) -> list[str]:
    command = [sys.executable, str(HERE / "run.py")] + [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--toy",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    label = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}: {done.stderr[-2000:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"{label}: not a correct run: {result}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = result.get("metrics", {})
    if set(printed) != set(wanted):
        problems.append(f"{label}: metrics {sorted(set(printed) ^ set(wanted))} differ")
    for name, unit in wanted.items():
        metric = printed.get(name, {})
        if metric.get("unit") != unit:
            problems.append(f"{label}: {name} unit {metric.get('unit')!r} != {unit!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = _check_tables(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = _check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
