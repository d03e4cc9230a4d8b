"""Time one cold set-up of a workload in this fresh interpreter and print
the seconds: importing numpy and nfvplace, loading the configs and building
the state space. bench/run.py starts this script several times with
``src`` on PYTHONPATH and reports the median as ``setup_s``.

    python3 bench/setup_probe.py seven-trellis
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (the import is part of what is timed)

workloads.build(sys.argv[1])
print(time.perf_counter() - t0)
