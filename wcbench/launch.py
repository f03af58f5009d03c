"""Run one command and record its wall time, exit code, max RSS and CPU time.

Usage::

    python3 wcbench/launch.py RESULT_JSON PROGRAM [ARGUMENTS...]

The benchmark starts every CLI process through this small, numpy-free
process.  Linux folds the memory high-water mark of the process that
spawns a program into the program's own max RSS, so a CLI spawned straight
from the benchmark, which holds its inputs and reference results, would
report the benchmark's memory instead of its own.
"""

import json
import os
import subprocess
import sys
import time


def main(argv) -> int:
    result_path, command = argv[0], argv[1:]
    start = time.perf_counter()
    proc = subprocess.Popen(command)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w") as fh:
        json.dump(
            {
                "code": proc.returncode,
                "wall": wall,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "cpu": usage.ru_utime + usage.ru_stime,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
