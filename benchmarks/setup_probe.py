"""Print the seconds one workload's set-up takes in a fresh interpreter.

Set-up is ``import parobs`` plus building the workload's design. Usage:
``python3 benchmarks/setup_probe.py <workload> <scale>``.
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports parobs; part of the measured set-up)

workloads.WORKLOADS[sys.argv[1]](sys.argv[2]).setup()
print(repr(time.perf_counter() - start))
