"""``python -m repro`` — the umbrella CLI without installed entry points.

Every command-line start goes through :func:`main`: ``python -m repro``,
the ``repro`` console script and (through :func:`schedule_main`) the
``repro-schedule`` alias.  It caps each mapped OpenBLAS at one thread
(:func:`repro.engine.blas.use_one_blas_thread`), so the only parallelism
is the program's own workers and shards, then runs the command.  The
command functions in :mod:`repro.cli` stay free of that process-wide
setting, so calling them in-process leaves the caller's BLAS alone::

    PYTHONPATH=src python -m repro solve --soc alpha15 --tl 165 --stcl 60
"""

from __future__ import annotations

import sys
from typing import Callable

from .cli import repro_main, schedule_entry
from .engine.blas import use_one_blas_thread


def main(command: Callable[[], int] = repro_main) -> int:
    """Run *command* (the ``repro`` umbrella by default) on one BLAS thread."""
    use_one_blas_thread()
    return command()


def schedule_main() -> int:
    """Console entry point of the ``repro-schedule`` alias."""
    return main(schedule_entry)


if __name__ == "__main__":
    sys.exit(main())
