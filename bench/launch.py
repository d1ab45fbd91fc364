"""Child launcher: starts one measured process per request, one at a time.

The runner starts this helper before it generates inputs or parses outputs,
and starts every measured process through it.  A process carries the
resident memory of the process it was forked from into its own peak-RSS
count, so measured processes must not descend from a runner that already
holds large inputs.

Protocol: one JSON request per line on standard input,
``{"argv": [...], "cwd": ..., "env": {...}, "stdout": path, "stderr": path,
"timeout": seconds}``; one JSON reply per line on standard output with the
wall time from launch to exit, CPU time and peak RSS from ``os.wait4``, the
exit code and whether the timeout killed the process.  On SIGTERM the
helper kills and reaps the running process before it exits.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

_current: list[int] = []  # pid of the process being measured, if any


def _terminate(signum, frame):
    for pid in _current:
        os.kill(pid, signal.SIGKILL)  # not reaped yet, so the pid is still ours
        os.waitpid(pid, 0)
    sys.exit(128 + signum)


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        timed_out = threading.Event()
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _current.append(proc.pid)

        def kill():
            timed_out.set()
            os.kill(proc.pid, signal.SIGKILL)  # not reaped yet, so the pid is still ours

        timer = threading.Timer(request["timeout"], kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
        _current.clear()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "exit_code": proc.returncode,
        "timed_out": timed_out.is_set(),
    }


def main() -> None:
    signal.signal(signal.SIGTERM, _terminate)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
