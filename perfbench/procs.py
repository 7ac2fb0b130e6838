"""Subprocess hygiene for the TCP workloads.

Servers and the router start with ``--port 0``; the port is read from
the "listening on" banner.  A :class:`ProcessGroup` owns every child it
starts and always stops them with SIGTERM (escalating to SIGKILL only
if a child ignores it), including after failures and interrupts, and
waits until each has exited — so no orphan or held port survives a run.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import peak_rss_mb

ROOT = Path(__file__).resolve().parent.parent
BANNER = re.compile(r"listening on (\S+):(\d+)")


class Child:
    """One ``python -m repro ...`` process and the port it listens on."""

    def __init__(self, name: str, args: list[str]) -> None:
        self.name = name
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.popen = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        self.port: int | None = None
        self.output = b""

    @property
    def address(self) -> str:
        return f"127.0.0.1:{self.port}"

    def wait_listening(self, timeout_s: float = 60.0) -> int:
        """Block until the banner names the port; fail if the child dies."""
        assert self.popen.stdout is not None
        fd = self.popen.stdout.fileno()
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.2)
            if not ready:
                if self.popen.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            self.output += chunk
            match = BANNER.search(self.output.decode(errors="replace"))
            if match:
                self.port = int(match.group(2))
                return self.port
        raise RuntimeError(
            f"{self.name} did not start listening: "
            f"{self.output.decode(errors='replace')[-2000:]}"
        )

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.popen.pid)

    def stop(self, timeout_s: float = 20.0) -> None:
        """SIGTERM, wait (drain), SIGKILL as a last resort; reap the child."""
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGTERM)
            try:
                self.popen.wait(timeout_s)
            except subprocess.TimeoutExpired:
                self.popen.kill()
                self.popen.wait(timeout_s)
        if self.popen.stdout is not None:
            self.output += self.popen.stdout.read()
            self.popen.stdout.close()


class ProcessGroup:
    """Every child of one run; a context manager that always stops them."""

    def __init__(self) -> None:
        self.children: list[Child] = []

    def spawn(self, name: str, args: list[str]) -> Child:
        child = Child(name, args)
        self.children.append(child)
        return child

    def serve(self, name: str) -> Child:
        """A ``repro serve --workers 1`` shard with otherwise default settings."""
        return self.spawn(name, ["serve", "--port", "0", "--workers", "1"])

    def route(self, shards: list[Child]) -> Child:
        """A ``repro route`` router over *shards* with default settings."""
        args = ["route", "--port", "0"]
        for shard in shards:
            args += ["--shard", shard.address]
        return self.spawn("router", args)

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of every live child (read before stopping)."""
        return sum(child.peak_rss_mb() for child in self.children)

    def stop(self) -> None:
        # Router first, so it never probes a shard that is going away.
        for child in reversed(self.children):
            child.stop()
        self.children.clear()

    def __enter__(self) -> "ProcessGroup":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def install_sigterm_handler() -> None:
    """Turn SIGTERM into an exception so ``finally`` blocks stop children."""

    def _raise(signum, frame):  # noqa: ARG001 - signal handler signature
        raise KeyboardInterrupt(f"signal {signum}")

    signal.signal(signal.SIGTERM, _raise)
