"""Set-up probe: import symrank, print `imported`, make a workload's one-time
preparation between calibration loops, print `ready PREP_S CAL_S` and
exit.  `run.py` times the import from process start and scales each part by
a calibration that follows it.

    python3 perfbench/setup_probe.py WORKLOAD
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import symrank.cli  # noqa: E402,F401

print("imported", flush=True)

from run import calibration_s  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

cal = [calibration_s() for _ in range(3)]
t0 = time.perf_counter()
WORKLOADS[sys.argv[1]].prepare()
prep_s = time.perf_counter() - t0
cal += [calibration_s() for _ in range(3)]
print(f"ready {prep_s!r} {statistics.median(cal)!r}", flush=True)
