"""One paper-sweep set-up, timed from outside by the caller.

Starts from a fresh interpreter so the import is part of the time:
import the library, create a workbench and solve one warm request per
thermal network of the mix.  Run as ``python3 perfbench/probe_setup.py``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.api import Workbench  # noqa: E402

from mix import warm_requests  # noqa: E402

if __name__ == "__main__":
    bench = Workbench()
    for request in warm_requests():
        bench.solve(request)
