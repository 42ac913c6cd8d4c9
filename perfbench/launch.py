"""Run one command to its end and print {"rc", "wall_s", "peak_mb"} as JSON.

    python3 launch.py TIMEOUT_S COMMAND...

Linux charges a child with the peak resident memory of the process it was
started from, because the child holds that address space until it execs.
run.py has numpy and scipy loaded, so it starts each operation through this
small process to read the operation's own peak. The wall time runs from
just before the start to the end of the wait; the command's standard error
is passed through.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    timeout, argv = float(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    timer = threading.Timer(timeout, p.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"rc": p.returncode, "wall_s": wall, "peak_mb": usage.ru_maxrss / 1024}))


if __name__ == "__main__":
    main()
