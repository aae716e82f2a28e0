"""Run benchmark children from a small process and report wall time and peak RSS.

Linux records a process's peak RSS as at least the resident size of the
process that forked it, at the moment it calls exec. The benchmark driver
holds numpy, scipy and the generated inputs, so a child forked from it would
report the driver's size whenever its own peak is lower. This launcher
imports only the standard library, so the floor it leaves is a few MB.

Protocol: one JSON request per line on stdin,
``{"cmd": [...], "env": {...}, "cwd": "...", "log": "...", "timeout": s}``,
and one JSON reply per line on stdout, ``{"wall": s, "rss_mb": MB, "code": n}``.
The launcher exits when stdin closes.
"""
import json
import os
import subprocess
import sys
import threading
import time


def run(cmd, env, cwd, log, timeout) -> dict:
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=err, stderr=err)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
