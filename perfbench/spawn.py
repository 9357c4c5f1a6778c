"""Run one command and report what it cost.

    python3 -S perfbench/spawn.py TIMEOUT_S COMMAND...

Prints one JSON object: exit code, wall seconds from launch to exit,
user+sys CPU seconds of the command and the children it reaped, and the
peak resident size in MB of the largest of them.  The command's own output
goes to this process's stderr.  After TIMEOUT_S the command's whole
process group is killed.

The measuring process is this small one, not run.py, because
on Linux a child's ru_maxrss starts from the peak resident size of the
process that spawned it.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main() -> int:
    timeout, cmd = float(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=sys.stderr,
                            start_new_session=True)
    signal.signal(signal.SIGALRM, lambda *_: os.killpg(proc.pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"code": proc.returncode, "wall_s": wall,
                      "cpu_s": usage.ru_utime + usage.ru_stime,
                      "rss_mb": usage.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
