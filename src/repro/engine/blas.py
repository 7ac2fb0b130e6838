"""One BLAS thread per command-line process.

numpy and scipy each bundle an OpenBLAS that, by default, starts one
thread per CPU for a factorisation or a multi-right-hand-side solve and
leaves those threads spinning after the call returns.  The program's own
parallelism is its workers and its shards; a second, hidden pool per
process only competes with them for the same CPUs.  So every ``repro``
command-line process (``python -m repro`` and the ``repro`` /
``repro-schedule`` console scripts, see :mod:`repro.__main__`) calls
:func:`use_one_blas_thread` once at start-up.  Importing :mod:`repro`
changes nothing: a library user keeps the BLAS settings of their own
process.

Each OpenBLAS the process has mapped is found in ``/proc/self/maps`` and
set through the library's own setter.  ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` in the environment wins: then nothing is changed.
Where there is no maps file, no loadable OpenBLAS or no setter (macOS
Accelerate, MKL builds), the defaults stay.

The count changes no decision of the scheduler.  OpenBLAS's threaded and
one-thread Cholesky kernels sum in different orders, so temperatures on
grids of 12×12 blocks and more can move in the last bits (under 1e-14
relative on the layer ledger's requests).
"""

from __future__ import annotations

import ctypes
import os

#: Environment variables through which a user picks OpenBLAS's thread count.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

#: The setter (and getter) names OpenBLAS builds export: plain, 64-bit
#: integer interface, and the symbol-prefixed copies numpy and scipy bundle.
_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)
_GETTERS = tuple(name.replace("_set_", "_get_") for name in _SETTERS)


def _mapped_openblas() -> dict[str, ctypes.CDLL]:
    """Every OpenBLAS mapped into this process, by path; empty if unknown."""
    try:
        with open("/proc/self/maps") as maps:
            rows = (line.strip().split(maxsplit=5) for line in maps)
            paths = {r[5] for r in rows if len(r) == 6 and "openblas" in r[5].lower()}
    except OSError:
        return {}
    libraries: dict[str, ctypes.CDLL] = {}
    for path in sorted(paths):
        try:
            libraries[path] = ctypes.CDLL(path)
        except OSError:  # e.g. "/path/libopenblas.so (deleted)"
            continue
    return libraries


def _exported(library: ctypes.CDLL, names: tuple[str, ...]) -> str | None:
    """The first of *names* that *library* exports."""
    return next((name for name in names if hasattr(library, name)), None)


def use_one_blas_thread() -> None:
    """Set every mapped OpenBLAS to one thread, unless the user chose a count."""
    if any(os.environ.get(name) for name in THREAD_ENV):
        return
    for library in _mapped_openblas().values():
        name = _exported(library, _SETTERS)
        if name is not None:
            setter = library[name]
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)


def blas_threads() -> dict[str, int]:
    """Threads each mapped OpenBLAS will use, by library path."""
    counts: dict[str, int] = {}
    for path, library in _mapped_openblas().items():
        name = _exported(library, _GETTERS)
        if name is not None:
            getter = library[name]
            getter.argtypes = []
            getter.restype = ctypes.c_int
            counts[path] = int(getter())
    return counts
