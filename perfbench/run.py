"""pstab benchmark: drives the CLI on seeded workloads and checks every output.

    python3 perfbench/run.py --workload bijection|counting|verify \\
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports nothing installed and
runs ``python -m pstab`` with ``PYTHONPATH=src``.  With ``--trace 0`` it runs
one client in a closed loop (one request in flight, the next sent when the
previous one has been answered and checked) over the workload's request pass
in whole passes for about ``--seconds``, and reports the end-to-end metrics.
Each request is followed by a fixed reference process, and every timing is
taken relative to the reference runs on either side of it (see
``host_adjusted``).  With ``--trace 1`` it replays the same pass
in this process through ``pstab.cli.main`` and reports per-layer metrics from
spans (see spans.py).  The last line of stdout is one JSON object; the line
before it is a stamp with the interpreter, commit, core count, seed, the
steal ticks the host took from this machine during the run, the reference's
median time and the unadjusted timings.

Inputs and outputs live in ``.perfbench/`` under the checkout; the run
deletes its inputs when it ends and keeps only the span file of a traced run.
See README.md for the metrics, the workloads and why each exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import workloads  # noqa: E402

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
SETUP_REPEATS = 5
# The reference process: interpreter start-up plus a fixed pure-Python loop,
# started the same way as a request.  Host-adjusted timings are ratios to its
# time, scaled by REFERENCE_NOMINAL_S so that they read in seconds: a round
# figure inside the 75-150 ms that it took on a shared 2-vCPU VM.
REFERENCE_ARGV = ["-c", "t = 0\nfor i in range(150_000):\n    t += i * i % 7"]
REFERENCE_NOMINAL_S = 0.100


def percentile(values, pct):
    """Nearest-rank percentile: the smallest value with pct% of them at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Child:
    """Runs ``python -m pstab`` requests through the launcher process and
    returns wall time, CPU, peak RSS, exit code and output of each."""

    def __init__(self, root, workdir):
        self.out_path = os.path.join(workdir, "stdout")
        self.err_path = os.path.join(workdir, "stderr")
        self.proc = subprocess.Popen(
            [sys.executable, LAUNCHER, os.path.join(root, "src")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv, timeout, python=False):
        """Run ``python -m pstab *argv``, or ``python *argv`` if ``python``."""
        self.proc.stdin.write(json.dumps({
            "argv": argv, "timeout": timeout, "stdout": self.out_path, "stderr": self.err_path,
            "python": python,
        }) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        result = json.loads(line)
        with open(self.out_path, encoding="utf-8", errors="replace") as handle:
            result["stdout"] = handle.read()
        with open(self.err_path, encoding="utf-8", errors="replace") as handle:
            result["stderr"] = handle.read()
        return result

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def reference(self):
        """Wall and CPU seconds of one run of the reference process."""
        res = self.run(REFERENCE_ARGV, workloads.NORMAL_TIMEOUT_S, python=True)
        if res["code"] != 0:
            raise RuntimeError(f"reference process exited {res['code']}: {res['stderr'][-500:]}")
        return res["latency_s"], res["cpu_s"]


def steal_ticks():
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def git_sha(root):
    """Commit of the checkout if it is a git work tree; the bench checkout is not."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="ascii") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), encoding="ascii") as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"


def setup(name, seed, workdir, child):
    """Build the request pass with inputs and expected outputs, then warm up.

    The warm-up runs ``pstab --help`` once, which also compiles the package's
    bytecode on the first run in a fresh checkout.
    """
    start = time.perf_counter()
    workload = workloads.WORKLOADS[name](seed, workdir)
    warm = child.run(["--help"], workloads.NORMAL_TIMEOUT_S)
    if warm["code"] != 0:
        raise RuntimeError(f"pstab --help exited {warm['code']}: {warm['stderr'][-500:]}")
    return workload, time.perf_counter() - start


def closed_loop(workload, seconds, child):
    checker = workloads.Checker()
    reqs = workload.requests
    samples = []
    refs = []  # (midpoint, wall, cpu) of each reference run, in order

    def reference():
        t0 = time.perf_counter()
        wall, cpu = child.reference()
        refs.append(((t0 + time.perf_counter()) / 2, wall, cpu))

    reference()
    first_refs = [0]  # per sample: index of the first reference run after it
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    # Whole passes only, so that every run has exactly the pass's mix of
    # requests, however many passes the machine's speed allows.  A pass is
    # begun only if, at the mean pass time so far, it would end no later
    # than a quarter pass after the deadline, so a run never lasts much
    # longer than ``seconds``.
    while True:
        if i % len(reqs) == 0 and i:
            now = time.perf_counter()
            mean_pass = (now - start) / (i // len(reqs))
            if now + mean_pass * 3 / 4 > deadline:
                break
        index = i % len(reqs)
        req = reqs[index]
        t0 = time.perf_counter()
        res = child.run(req.argv, req.timeout)
        t1 = time.perf_counter()
        # The reference runs for at least a tenth of the request's time, so
        # that a long request has a fair sample of the host around it.
        first_refs.append(len(refs))
        while True:
            reference()
            if sum(r[1] for r in refs[first_refs[-1]:]) >= res["latency_s"] / 10:
                break
        verdict, reason = checker(index, req, res["code"], res["stdout"], res["stderr"], res["timed_out"])
        samples.append({
            "index": index,
            "latency_s": res["latency_s"],
            "cpu_s": res["cpu_s"],
            "rss_kb": res["rss_kb"],
            "timed_out": res["timed_out"],
            "span": (t0, t1),
            "verdict": verdict,
            "reason": reason,
        })
        i += 1
    for j, s in enumerate(samples):
        # The reference runs just before and just after the request, and
        # every other one within a request's length of it: a long request
        # spans several of the host's slow and fast spells, and so does that
        # window.
        t0, t1 = s.pop("span")
        after = first_refs[j + 1]
        near = {k for k, r in enumerate(refs) if t0 - (t1 - t0) <= r[0] <= t1 + (t1 - t0)} | {after - 1, after}
        s["ref_wall_s"] = statistics.fmean(refs[k][1] for k in near)
        s["ref_cpu_s"] = statistics.fmean(refs[k][2] for k in near)
    return samples


def host_adjusted(value, ref):
    """``value`` in units of the reference process's time, times its nominal
    time.

    On a shared 2-vCPU VM, a fixed loop pinned to one
    vCPU reads about 25 ms or about 35 ms, switching every few seconds, and
    the whole host drifts by a fifth over minutes with little steal time:
    the best latency of one CLI request over 15 s windows ranged over
    108-142 ms within three minutes.  A reference process run next to the
    request is slowed alike, and the ratio of the two varied by about 5%
    over the same windows.
    """
    return value / ref * REFERENCE_NOMINAL_S


def adjusted(sample, key, ref_key):
    """A sample's host-adjusted ``key``.  A timed-out request's time is the
    timeout, which the benchmark sets and the host does not, so it stays."""
    if sample["timed_out"]:
        return sample[key]
    return host_adjusted(sample[key], sample[ref_key])


def per_slot(samples, value, reqs):
    """Each slot's median ``value(sample)`` over the samples of its request
    in the run (a request that fills several slots pools them)."""
    by_request = {}
    for s in samples:
        by_request.setdefault(id(reqs[s["index"]]), []).append(value(s))
    return [statistics.median(by_request[id(req)]) for req in reqs]


def end_to_end(workload, samples, setup_times):
    reqs = workload.requests
    latency = per_slot(samples, lambda s: adjusted(s, "latency_s", "ref_wall_s"), reqs)
    tail, beyond = percentile(latency, workload.tail_pct)
    ok = sum(s["verdict"] == workloads.OK for s in samples)
    metrics = {
        "setup_s": (statistics.median(host_adjusted(t, ref) for t, ref in setup_times), "s"),
        "wall_s": (sum(latency), "s"),
        "req_p50_ms": (statistics.median(latency) * 1000, "ms"),
        "req_tail_ms": (tail * 1000, "ms"),
        "ok_frac": (ok / len(samples), "frac"),
        "cpu_s": (sum(per_slot(samples, lambda s: adjusted(s, "cpu_s", "ref_cpu_s"), reqs)), "s"),
        "peak_rss_mb": (max(s["rss_kb"] for s in samples) / 1024, "MB"),
    }
    failures = {}
    for s in samples:
        if s["verdict"] != workloads.OK:
            cls = reqs[s["index"]].cls
            entry = failures.setdefault(cls, {"count": 0, "verdict": s["verdict"], "reason": s["reason"]})
            entry["count"] += 1
    known = sum(reqs[s["index"]].known_defect for s in samples)
    raw = per_slot(samples, lambda s: s["latency_s"], reqs)
    details = {
        "samples": len(samples),
        "passes": round(len(samples) / len(reqs), 3),
        "tail_percentile": workload.tail_pct,
        "tail_samples_beyond": beyond * len(samples) // len(reqs),
        "fail_frac": 1 - ok / len(samples),
        "known_defect_share": known / len(samples),
        "failures": failures,
        "reference_s": statistics.median(s["ref_wall_s"] for s in samples),
        "unadjusted": {
            "setup_s": statistics.median(t for t, _ in setup_times),
            "wall_s": sum(raw),
            "req_p50_ms": statistics.median(raw) * 1000,
            "req_tail_ms": percentile(raw, workload.tail_pct)[0] * 1000,
            "cpu_s": sum(per_slot(samples, lambda s: s["cpu_s"], reqs)),
        },
    }
    correct = not any(s["verdict"] == workloads.WRONG for s in samples)
    return metrics, details, correct, len(samples) - ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A termination request unwinds through the ``finally`` below, which
    # stops the launcher after its current child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pstab", "cli.py")):
        print("error: run from a pstab source checkout (no src/pstab/cli.py here)", file=sys.stderr)
        return 2
    base = os.path.join(root, ".perfbench")
    workdir = os.path.join(base, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    steal_before = steal_ticks()
    started = time.time()
    child = Child(root, workdir)
    try:
        setup_times = []  # (seconds, mean reference wall seconds on either side)
        ref_before = child.reference()[0]
        for _ in range(1 if args.trace else SETUP_REPEATS):
            workload, elapsed = setup(args.workload, args.seed, workdir, child)
            ref_after = child.reference()[0]
            setup_times.append((elapsed, (ref_before + ref_after) / 2))
            ref_before = ref_after
        if args.trace:
            spans_path = os.path.join(base, f"spans-{args.workload}-{args.seed}.tsv.gz")
            metrics, details, correct, failed, attempted = spans.traced_run(
                root, workload, args.seconds, child, spans_path
            )
        else:
            samples = closed_loop(workload, args.seconds, child)
            metrics, details, correct, failed = end_to_end(workload, samples, setup_times)
            attempted = len(samples)
    finally:
        child.close()
        shutil.rmtree(workdir, ignore_errors=True)
    steal_after = steal_ticks()

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10s} {name:40s} {value:16.6g} {unit}")
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "steal_ticks": None if steal_before is None else steal_after - steal_before,
        "run_s": round(time.time() - started, 3),
        **details,
    }
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
