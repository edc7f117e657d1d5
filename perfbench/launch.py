"""Run one command and write its wall time and resource use to a JSON file.

    python3 perfbench/launch.py RESULT.json PROGRAM [ARG ...]

RESULT.json gets the exit code, the wall time from spawn to reaping, and
the user plus system CPU and peak resident set of the command and of every
descendant it reaped (pool workers), from os.wait4.

On Linux a process's ru_maxrss starts at the high-water resident set of
the address space that exec replaced, and with vfork (which both
subprocess and posix_spawn use) that is the spawning process's own.
run.py holds numpy and parses tens of MB of CSV, so a command it spawned
directly would report at least run.py's peak. This launcher's own
address space holds nothing beyond the interpreter's core, so the floor it
passes on is a few MB.
"""

import json
import os
import sys
import time


def main():
    result_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"code": os.waitstatus_to_exitcode(status), "start": t0, "wall_s": wall,
                   "cpu_s": ru.ru_utime + ru.ru_stime,
                   "peak_rss_mb": ru.ru_maxrss / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
