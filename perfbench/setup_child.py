"""Time one fresh interpreter's set-up for a workload.

Run by run.py as `python3 perfbench/setup_child.py WORKLOAD SEED` with
PYTHONPATH pointing at the checkout's src/. Prints one JSON line: the time
to import compmap and the time to build the workload's maps, fixed points
and other inputs (for raster this includes the first, uncached
find_ex5_two_equilibria call).
"""

import json
import sys
import time

t0 = time.perf_counter()
import compmap  # noqa: E402,F401
t1 = time.perf_counter()
import workloads  # noqa: E402

workloads.BUILDERS[sys.argv[1]](int(sys.argv[2]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "setup_s": t2 - t0}))
