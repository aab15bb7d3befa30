"""Set-up time of one fresh process: ``import quatreg`` plus building the
workload's inputs.  Prints seconds.  run.py starts it with quatreg's
sources on PYTHONPATH and QUATREG_THREADS set.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys
import time

t0 = time.perf_counter()
import quatreg  # noqa: E402,F401  (timed: the import is part of set-up)
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - t0)
