"""The benchmark's own tests.  Run from the checkout root:

    python3 perfbench/selftest.py

They take about half a minute: one real verify run through the command line,
and smoke-size passes of the other workloads called in process.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)
END_TO_END = [m["name"] for m in CONTRACT["end_to_end"]]
PER_LAYER = [m["name"] for m in CONTRACT["per_layer"]]


def _bench(args, cwd):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


SCRATCH = os.path.join(ROOT, ".perfbench")


class WorkDir(unittest.TestCase):
    def setUp(self):
        os.makedirs(SCRATCH, exist_ok=True)
        self.workdir = tempfile.mkdtemp(dir=SCRATCH)
        self.child = run.Child(ROOT, self.workdir)

    def tearDown(self):
        self.child.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def smoke(self, name, keep):
        """The workload's pass cut down to the classes ``keep`` accepts."""
        workload = workloads.WORKLOADS[name](7, self.workdir)
        workload.requests = [r for r in workload.requests if keep(r)]
        return workload


class SmokeRun(WorkDir):
    def test_command_prints_every_end_to_end_metric(self):
        proc = _bench(["--workload", "verify", "--seed", "3", "--seconds", "0", "--trace", "0"], ROOT)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(result["metrics"]), END_TO_END)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        for name in END_TO_END:
            self.assertIn(name, proc.stdout.split(lines[-2])[0])
        stamp = json.loads(lines[-2])["stamp"]
        for key in ("python", "git_sha", "nproc", "seed", "steal_ticks", "reference_s", "unadjusted"):
            self.assertIn(key, stamp)

    def test_known_defects_are_the_only_failures(self):
        workload = self.smoke("counting", lambda r: r.cls in ("hook", "oracle", "oversize-bell"))
        samples = run.closed_loop(workload, 0, self.child)
        metrics, details, correct, failed = run.end_to_end(workload, samples, [(0.1, 0.04)])
        self.assertEqual(list(metrics), END_TO_END)
        self.assertTrue(correct)
        self.assertEqual(failed, 1)
        self.assertAlmostEqual(details["fail_frac"], details["known_defect_share"])

    def test_traced_run_prints_every_per_layer_metric(self):
        workload = self.smoke("bijection", lambda r: r.cls.startswith(("insert-10000", "rsk", "unrsk-word-lps-1500")))
        path = os.path.join(self.workdir, "spans.tsv.gz")
        metrics, details, correct, failed, attempted = spans.traced_run(ROOT, workload, 0, self.child, path)
        self.assertEqual(list(metrics), PER_LAYER)
        self.assertTrue(correct)
        self.assertEqual(failed, 0)
        self.assertGreater(metrics["insertion.calls"][0], 0)
        self.assertEqual(metrics["oracle.busy_s"][0], 0)
        self.assertTrue(os.path.getsize(path) > 0)

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=SCRATCH) as bare:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = _bench(["--workload", "counting", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class CheckerCatchesCorruption(WorkDir):
    def answer(self, req):
        res = self.child.run(req.argv, req.timeout)
        return res["code"], res["stdout"], res["stderr"]

    def assert_corruption_caught(self, req, corrupt):
        code, out, err = self.answer(req)
        self.assertEqual(workloads.check(req, code, out, err, False), (workloads.OK, ""))
        verdict, _ = workloads.check(req, code, corrupt(out), err, False)
        self.assertEqual(verdict, workloads.WRONG)

    def test_corrupted_count(self):
        req = self.smoke("counting", lambda r: r.cls == "count:lps-3e5").requests[0]
        self.assert_corruption_caught(req, lambda out: str(int(out) + 1) + "\n")

    def test_corrupted_insert(self):
        req = self.smoke("bijection", lambda r: r.cls == "insert-10000-lps-50").requests[0]

        def swap_two_symbols(out):
            blob = json.loads(out)
            cols = blob["p"]["columns"]
            cols[0][0], cols[-1][0] = cols[-1][0], cols[0][0]
            return json.dumps(blob)

        self.assert_corruption_caught(req, swap_two_symbols)

    def test_corrupted_unrsk(self):
        req = self.smoke("bijection", lambda r: r.cls == "unrsk-word-lps-1500-member").requests[0]

        def bump_one_symbol(out):
            blob = json.loads(out)
            blob["word"][len(blob["word"]) // 2] += 1
            return json.dumps(blob)

        self.assert_corruption_caught(req, bump_one_symbol)

    def test_wrong_exit_codes(self):
        reject = self.smoke("bijection", lambda r: r.cls.endswith("reject")).requests[0]
        self.assertEqual(workloads.check(reject, 0, '{"word": [1]}', "", False)[0], workloads.WRONG)
        self.assertEqual(workloads.check(reject, 3, "", "error: not stable", False)[0], workloads.OK)
        verify = self.smoke("verify", lambda r: True).requests[0]
        self.assertEqual(workloads.check(verify, 0, "summary: 543/544 cases passed", "", False)[0], workloads.WRONG)
        self.assertEqual(workloads.check(verify, 0, "summary: 0/0 cases passed", "", False)[0], workloads.WRONG)
        self.assertEqual(workloads.check(verify, 1, "traceback", "Traceback (most recent call last)", False)[0],
                         workloads.ERROR)

    def test_corrupted_answer_fails_the_run(self):
        workload = self.smoke("counting", lambda r: r.cls in ("hook", "count-small"))
        workload.requests = workload.requests[:2]  # a hook and a count request
        req = workload.requests[1]
        req.expect = ("value", str(int(req.expect[1]) + 1), False)
        samples = run.closed_loop(workload, 0, self.child)
        _, _, correct, failed = run.end_to_end(workload, samples, [(0.1, 0.04)])
        self.assertFalse(correct)
        self.assertEqual(failed, 1)


class Reference(unittest.TestCase):
    def test_golden_table_matches_both_routes_on_cheap_entries(self):
        golden = workloads.load_golden()
        counts, bells, shapes = workloads.golden_entries()
        for mode, ev in counts:
            if mode == "rps" or sum(ev) <= 12:
                self.assertEqual(golden["count"][workloads.count_key(mode, ev)], str(ref.count_recursive(ev, mode)))
            if sum(ev) <= 8:
                self.assertEqual(ref.count_closed_form(ev, mode), ref.count_recursive(ev, mode))
        for n in bells:
            self.assertEqual(golden["bell"][str(n)], str(ref.bell_triangle(n)))
        for n, lam in shapes:
            self.assertEqual(golden["hook"][workloads.hook_key(n, lam)], str(ref.hook_recursive(lam)))

    def test_round_trips(self):
        rng = random.Random(11)
        for level, mode, boxes, member in workloads._UNRSK:
            p, q = (workloads._member if member else workloads._non_member)(rng, boxes, mode, level)
            self.assertEqual(ref.is_member(p, q, mode, level), member)

    def test_percentile_leaves_samples_beyond(self):
        value, beyond = run.percentile(list(range(1, 51)), 80)
        self.assertEqual((value, beyond), (40, 10))


if __name__ == "__main__":
    unittest.main()
