"""Run child processes on request; report exit code, wall time and peak RSS.

Reads one JSON request per line on stdin::

    {"argv": [...], "stdout": "<file>", "stderr": "<file>"}

and answers each with one JSON line on stdout::

    {"code": 0, "wall_s": 1.23, "maxrss_kb": 30784}

Linux carries the memory high-water mark of the process that execs into a
child over into the child's ``ru_maxrss``.  The benchmark process holds
whole in-process traces, so a child started from it would report at least
that much.  This helper stays small, so the peak it reads from ``wait4`` is
the child's own.  It exits when its stdin closes.
"""

import json
import os
import subprocess
import sys
import time

for line in sys.stdin:
    request = json.loads(line)
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}),
          flush=True)
