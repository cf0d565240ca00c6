"""Helper process that runs commands for bench.py and reports how each ran.

Reads one JSON request per line on stdin ({"cmd", "cwd", "env", "log"}),
runs the command to completion with its output appended to "log", and writes
one JSON line back: exit code, wall time, launch timestamp and the peak RSS
from wait4. Exits when stdin closes.

Linux carries a process's peak RSS into the ru_maxrss of a child it forks and
execs. The benchmark process holds generated inputs and parsed outputs, so
children it launched directly would report its peak, not theirs. This helper
is a fresh interpreter that stays small.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "ab") as log:
            launched = time.time()
            start = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"],
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall_s": wall, "launched": launched,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
