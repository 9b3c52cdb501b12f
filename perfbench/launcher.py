"""Starts the benchmark's child processes on behalf of ``run.py``.

Linux carries a process's peak RSS into the children it forks, so children
started by ``run.py``, which grows while it checks large outputs, would
report its peak as their own. This process stays small and starts every
child instead.

Protocol: one JSON request per stdin line, ``{"argv", "stdout", "stderr",
"timeout"}`` (two file paths and seconds), answered by one stdout line
``{"rc", "wall_s", "rss_kb"}``. The wall time runs from just before the
spawn to the reaping of the child. A child still running at its timeout is
killed. The launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, stdout_path, stderr_path, timeout):
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 0.1), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall, "rss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["argv"], req["stdout"], req["stderr"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
