"""Small helper process that starts each ``python -m pstab`` request.

A child started by ``posix_spawn`` or ``fork`` takes its parent's peak RSS as
the starting point of its own, so children of the benchmark process (which
holds every input and parses every output) would all report the benchmark's
size.  This helper is started while the benchmark is still small and does
nothing but spawn, time and reap, so a child's reported peak is its own.

Protocol: one JSON object per line on stdin ``{"argv", "timeout", "stdout",
"stderr", "python"}``, one JSON result per line on stdout.  It runs
``python -m pstab *argv``, or ``python *argv`` if ``python`` is true.  EOF on
stdin ends it.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time


def run(argv, timeout, out_path, err_path, env):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o600),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o600),
    ]
    lock = threading.Lock()
    state = {"done": False, "killed": False}

    def kill(pid):
        with lock:
            if not state["done"]:
                state["killed"] = True
                os.killpg(pid, signal.SIGKILL)

    start = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable, [sys.executable, *argv], env,
        file_actions=actions, setpgroup=0,
    )
    timer = threading.Timer(timeout, kill, (pid,))
    timer.start()
    # Wait without reaping first, so the timer can never signal a reused pid.
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    elapsed = time.perf_counter() - start
    with lock:
        state["done"] = True
    timer.cancel()
    if state["killed"]:
        try:
            os.killpg(pid, signal.SIGKILL)  # workers the killed child left behind
        except ProcessLookupError:
            pass
    _, status, usage = os.wait4(pid, 0)
    return {
        "code": os.waitstatus_to_exitcode(status),
        "timed_out": state["killed"],
        "latency_s": elapsed,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }


def serve(src):
    env = dict(os.environ, PYTHONPATH=src)
    for line in sys.stdin:
        req = json.loads(line)
        argv = req["argv"] if req.get("python") else ["-m", "pstab", *req["argv"]]
        result = run(argv, req["timeout"], req["stdout"], req["stderr"], env)
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve(sys.argv[1])
