"""Starts the benchmark's child processes one at a time, for ``run.py``.

On Linux a child's ru_maxrss starts from the peak RSS of the process that
started it, because exec keeps the old memory map's high-water mark.  The
benchmark's own process holds the oracles' tables and the outputs it
checks, so it starts every child through this small process instead, and
each measured peak RSS is the child's own.

One JSON request per stdin line: {"argv", "stdout", "stderr", "timeout"}
(the child's output files and the seconds after which it is killed).  One
JSON reply per stdout line: {"wall", "cpu", "rss_mb", "code"}.  Exits at
the end of its input.
"""

import json
import os
import signal
import subprocess
import sys
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(max(1, int(request["timeout"])))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024, "code": proc.returncode}


for line in sys.stdin:
    print(json.dumps(run(json.loads(line))), flush=True)
