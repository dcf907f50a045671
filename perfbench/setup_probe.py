"""Set-up work of one workload in a fresh process, timed by run.py.

Imports agrisim, parses the workload's scenario, loads the message catalog
and prints the system-wide monotonic clock, which run.py subtracts from the
same clock read just before it started this process:

    python3 perfbench/setup_probe.py season-dry
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from agrisim import alerting  # noqa: E402

workloads.build_scenario(sys.argv[1], workloads.shipped_mapping())
alerting.MessageCatalog.default()
print(time.clock_gettime(time.CLOCK_MONOTONIC))
