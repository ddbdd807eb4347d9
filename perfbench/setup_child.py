"""One timed benchmark set-up in a fresh interpreter.

Usage: python3 perfbench/setup_child.py <repo root> <workload> <size> <dir>

Imports greenlinks from <repo root>/src, writes the workload's scenario
file into <dir> and prints the seconds both took.  Only ``sys`` and
``time`` are loaded before the clock starts, so the figure includes
every module greenlinks pulls in.
"""

import sys
import time

root, workload, size, directory = sys.argv[1:5]
sys.path[:0] = [f"{root}/src", f"{root}/perfbench"]

start = time.perf_counter()
import greenlinks.cli  # noqa: E402
import json  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

wl = WORKLOADS[workload](size)
with open(f"{directory}/{workload}.json", "w") as fh:
    json.dump(wl.scenario(), fh, indent=1, sort_keys=True)
elapsed = time.perf_counter() - start

print(f"{elapsed!r} {greenlinks.cli.__file__}")
