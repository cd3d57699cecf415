"""Set-up cost in a fresh process: import steadygrid, then load_case each case.

Run as ``python3 -m perfbench.setup_probe CASE_PATH...``; prints one JSON
line with ``import_s``, ``load_s`` and ``scale``, the factor to the reference
speed from three runs of the speed reference kernel made right after.
"""

import time

t0 = time.perf_counter()
import steadygrid  # noqa: E402  (the import is what is timed)

t1 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

for path in sys.argv[1:]:
    steadygrid.load_case(path)
t2 = time.perf_counter()

from perfbench.speedref import scale, time_kernel  # noqa: E402

time_kernel()  # its first call pays scipy's lazy set-up
f = scale([time_kernel() for _ in range(3)])
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "scale": f, "module": steadygrid.__file__}))
