"""Launch the benchmark's subprocesses from a small process of their own.

The peak RSS that wait4 reports for a child counts the memory image of the
process that spawned it, up to the exec, so a child spawned by the runner
(which holds parsed outputs of hundreds of MB) would inherit the runner's
size.  The runner therefore starts this script once, before it grows, and
sends it one JSON request per line on stdin::

    {"argv": [...], "cwd": "...", "stdout": "...", "stderr": "...", "timeout": 150}

For each request it runs the command to completion (killing it at the
timeout) and answers with one JSON line: ``launch`` (perf_counter at spawn,
a system-wide monotonic clock on Linux), ``wall_s``, ``cpu_s`` (user + sys)
and ``rss_mb`` from the child's own rusage, and ``exit``.  It exits when
stdin closes.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdout=out, stderr=err)
        try:
            # Sleep until the child exits (its pidfd turns readable) or times out.
            pidfd = os.pidfd_open(proc.pid)
            try:
                if not select.select([pidfd], [], [], request["timeout"])[0]:
                    proc.kill()
            finally:
                os.close(pidfd)
        except BaseException:
            proc.kill()
            raise
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "launch": start,
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
