"""Every script under ``examples/`` runs to completion, warning-free.

The examples are the first code a user copies, so each runs as its own
process with ``DeprecationWarning`` promoted to an error: an example
that still reaches the library through a deprecated path fails here
instead of teaching it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs_without_deprecation_warnings(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=100,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
