#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

Builds mwbench through run.py and checks the benchmark itself:
  * the same seed generates the same inputs, another seed other inputs;
  * a deliberate generator stall shows up in latency_p99_us (the
    coordinated-omission correction: latency is timed from the intended
    send time, not the late actual send);
  * shed requests are goodput misses, not failures;
  * run.py refuses a constant that is not one of the test overrides;
  * in a directory holding only BENCHMARK.json and perfbench/, the run
    fails without printing a result.
Takes about a minute; writes only under .bench_build/.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "mwbench")


def run_bench(workload, seconds, params=(), seed=1):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    for p in params:
        cmd += ["--param", p]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]), lines[:-1]


def constants(workload):
    with open(os.path.join(HERE, "workloads.json")) as f:
        c = json.load(f)["workloads"][workload]["constants"]
    return ["--%s=%s" % (k, v) for k, v in c.items()]


def inputs_digest(workload, seed):
    out = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
         "10", "--trace", "0", "--inputs_digest=1"] + constants(workload),
        capture_output=True, text=True, check=True, timeout=60)
    return out.stdout.strip()


class BenchmarkTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # A short one-segment run; it also builds the binary the other
        # tests call directly.
        rc, cls.shed_result, cls.shed_notes = run_bench(
            "svc_socket", 4, ["setups=1"])
        cls.shed_rc = rc

    def test_same_seed_same_inputs(self):
        for wl in ("svc_socket", "race_cow", "race_prune"):
            a, b = inputs_digest(wl, 7), inputs_digest(wl, 7)
            self.assertEqual(a, b, wl)
            self.assertNotEqual(a, inputs_digest(wl, 8), wl)

    def test_shed_is_a_goodput_miss_not_a_failure(self):
        self.assertEqual(self.shed_rc, 0)
        r = self.shed_result
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)
        note = next(l for l in self.shed_notes if "# overload:" in l)
        admitted, shed = map(int, re.search(
            r"(\d+) admitted samples, (\d+) shed", note).groups())
        self.assertGreater(shed, 0, "the overload phase must shed")
        # Goodput counts admitted kOk responses only (over the 2 s overload
        # phase), never the shed ones.
        self.assertLessEqual(r["metrics"]["goodput_ops_s"]["value"] * 2,
                             admitted)

    def test_generator_stall_shows_in_p99(self):
        # One 10 s segment at 200 req/s: a 400 ms stall delays the ~80 of
        # 1000 steady requests due during it by up to 400 ms, so p99 lands
        # inside the stall. The burst fits the nodes' free slots and queue,
        # so timed from the late actual send it would add only its queueing
        # to p99 (+43 ms where the stall test measured +243 ms).
        low = ["steady_rps=200", "setups=1"]
        rc0, base, _ = run_bench("svc_socket", 10, low)
        rc1, stalled, _ = run_bench("svc_socket", 10, low + ["stall_ms=400"])
        self.assertEqual((rc0, rc1), (0, 0))
        p99_base = base["metrics"]["latency_p99_us"]["value"]
        p99_stall = stalled["metrics"]["latency_p99_us"]["value"]
        self.assertLess(p99_base, 300000)
        self.assertGreater(p99_stall, p99_base + 150000,
                           "a 400 ms generator stall must reach latency_p99")

    def test_only_test_overrides_are_accepted(self):
        # A constant outside the test overrides (here a check threshold)
        # is refused before anything runs.
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", "svc_socket", "--seed", "1",
             "--seconds", "1", "--trace", "0", "--param", "loss_budget=1"],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_fails_without_the_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "race_cow",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
