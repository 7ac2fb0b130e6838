"""Layer-ledger benchmark: one command, three workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no per-layer timers;
``--trace 1`` runs the same workload with the benchmark's timers around
its calls into the program, replays the layers that need extra calls,
and prints the per-layer metrics.  Either way the correctness gate runs
after the window, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A run whose
gate fails prints ``"correct": false`` with no metrics and exits 1.

The program under test is imported from ``src/`` of this checkout;
thread settings of the environment are recorded, never changed.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Seed reserved for checking a later claim on inputs it was not tuned on.
HOLDOUT_SEED = 90210
WORKLOADS = ("paper-sweep", "serve-poisson", "fleet-churn")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy",
        action="store_true",
        help="tiny decks and a single set-up (the harness self-test)",
    )
    return parser.parse_args(argv)


def _git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def _src_digest() -> tuple[int, str]:
    """Line count and content hash of the program's source tree."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
    return lines, digest.hexdigest()


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            function = getattr(library, name, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def metadata(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    from common import SLO_S
    from hostspeed import REFERENCE_S

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines, digest = _src_digest()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "slo_ms": SLO_S * 1e3,
        "probe_reference_ms": REFERENCE_S * 1e3,
        "git_sha": _git_sha(),
        "src_sha256": digest,
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC)]

    import common
    from ledger import END_TO_END, PER_LAYER
    from procs import install_sigterm_handler

    install_sigterm_handler()
    module = {
        "paper-sweep": "sweep",
        "serve-poisson": "serve",
        "fleet-churn": "fleet",
    }[args.workload]
    workload = __import__(module)
    print(json.dumps({"meta": metadata(args)}), flush=True)
    try:
        measured, records = workload.run(args.seed, args.seconds, bool(args.trace), args.toy)
    except common.GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    table = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in table:
        value = float(measured[name])
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:38s} {value:14.4f} {unit}")
    result = {
        "correct": True,
        "attempted": len(records),
        "failed": sum(1 for r in records if not r.ok),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
