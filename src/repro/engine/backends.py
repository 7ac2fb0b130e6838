"""Pluggable execution backends for the batch engine.

A backend answers one question: *how do N independent jobs get mapped
over workers?*  Three are registered out of the box:

* ``"serial"`` — in-process loop; zero overhead, the baseline every
  benchmark compares against.
* ``"thread"`` — a thread pool.  The linear-algebra kernels release the
  GIL, so threads overlap the solver-bound portion of jobs while
  sharing one in-process thermal-model cache.
* ``"process"`` — a process pool for true CPU parallelism.  Requests
  and outcomes are plain picklable dataclasses, so they cross the
  boundary unchanged; each worker process keeps its own model cache.

Additional backends (a cluster dispatcher, an async queue) register via
:func:`register_backend` and become selectable by name everywhere a
backend name is accepted (``BatchRunner``, the ``repro batch`` CLI).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from ..errors import SchedulingError

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")


def default_worker_count() -> int:
    """Worker count used when none is requested: every available CPU."""
    return max(1, os.cpu_count() or 1)


class ExecutionBackend(ABC):
    """Maps a worker function over jobs, preserving input order.

    Attributes
    ----------
    name:
        Registry name.
    shares_memory:
        True when workers run in the caller's address space (serial,
        threads) and can therefore share one model cache; the runner
        uses per-process caches otherwise.
    """

    name: str = "abstract"
    shares_memory: bool = True

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise SchedulingError(
                f"max_workers must be >= 1, got {max_workers!r}"
            )
        self._max_workers = max_workers

    @property
    def max_workers(self) -> int:
        """Effective worker count."""
        return self._max_workers or default_worker_count()

    @abstractmethod
    def map(
        self,
        worker: Callable[[_ItemT], _ResultT],
        items: Sequence[_ItemT],
    ) -> list[_ResultT]:
        """Apply *worker* to every item; results in input order."""

    def create_executor(self) -> Executor:
        """A long-lived ``concurrent.futures`` pool for this backend.

        ``map`` serves one-shot batches; a long-lived service instead
        submits jobs one at a time as they arrive, so it needs the pool
        itself (and owns its shutdown).  Backends with no pool semantics
        (a hypothetical cluster dispatcher) may refuse.
        """
        raise SchedulingError(
            f"backend {self.name!r} does not provide a job-at-a-time executor"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class SerialBackend(ExecutionBackend):
    """Run jobs one after another in the calling thread."""

    name = "serial"
    shares_memory = True

    @property
    def max_workers(self) -> int:
        return 1

    def map(self, worker, items):
        return [worker(item) for item in items]

    def create_executor(self) -> Executor:
        # One worker thread preserves the backend's one-at-a-time
        # semantics while staying awaitable from an event loop.
        return ThreadPoolExecutor(max_workers=1)


class ThreadBackend(ExecutionBackend):
    """Run jobs on a thread pool sharing the caller's memory."""

    name = "thread"
    shares_memory = True

    def map(self, worker, items):
        if not items:
            return []
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            return list(pool.map(worker, items))

    def create_executor(self) -> Executor:
        return ThreadPoolExecutor(max_workers=self.max_workers)


class ProcessBackend(ExecutionBackend):
    """Run jobs on a process pool (true CPU parallelism).

    The worker function and every item/result must be picklable; the
    runner passes a module-level worker that maintains a per-process
    model cache.
    """

    name = "process"
    shares_memory = False

    def map(self, worker, items):
        if not items:
            return []
        # Submitting in chunks amortises IPC overhead for large fleets.
        chunksize = max(1, len(items) // (4 * self.max_workers))
        with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
            return list(pool.map(worker, items, chunksize=chunksize))

    def create_executor(self) -> Executor:
        return ProcessPoolExecutor(max_workers=self.max_workers)


#: Backend registry: name -> backend class.
_REGISTRY: dict[str, type[ExecutionBackend]] = {}


def register_backend(cls: type[ExecutionBackend]) -> type[ExecutionBackend]:
    """Register a backend class under its ``name`` (usable as a decorator)."""
    name = cls.name
    if not name or name == "abstract":
        raise SchedulingError(f"backend {cls.__name__} needs a concrete name")
    _REGISTRY[name] = cls
    return cls


def available_backends() -> list[str]:
    """Registered backend names as a deterministically sorted list.

    Sorted so CLIs, docs and error messages render identically run to
    run regardless of registration order.
    """
    return sorted(_REGISTRY)


def create_backend(
    name: str, max_workers: int | None = None
) -> ExecutionBackend:
    """Instantiate a registered backend by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise SchedulingError(
            f"unknown execution backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        ) from None
    return cls(max_workers=max_workers)


for _cls in (SerialBackend, ThreadBackend, ProcessBackend):
    register_backend(_cls)
