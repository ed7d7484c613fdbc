#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

- Two runs of each sim workload with the same seed give identical
  step-count metrics.
- explore gives the same run count and coverage every time.
- run.py fails, printing no result, when the library sources are absent.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Exact (step-domain or count) metrics per sim workload. A metric is
# compared only when both runs reported it: a run that aborts reports
# only the sections it finished.
STEP_METRICS = {
    "churn_sim": ["ops_per_kstep", "op_p50_steps", "op_p99_steps",
                  "unavailable_ppm", "omega.stabilize_steps",
                  "omega.reelect_steps_p50", "omega.reelect_steps_max",
                  "omega.reelections", "sim.abort_ratio", "chan.abort_rounds",
                  "chan.write_aborts", "chan.quarantines", "chan.recoveries",
                  "chan.probes", "svc.route_p99_steps", "svc.probes_per_req",
                  "svc.ack_p50_steps", "svc.outage_p50_steps"],
    "degrade_sim": ["ops_per_kstep", "op_p50_steps", "op_p99_steps",
                    "max_gap_steps", "rung.register.steps_per_op",
                    "rung.omega.stabilize_steps", "rung.omega.leader_changes",
                    "rung.omega.punish_max", "rung.qa.steps_per_op",
                    "rung.qa.reads_per_op", "rung.qa.writes_per_op",
                    "rung.qa.rounds_per_op", "rung.qa.publishes_per_op",
                    "sim.reads_per_op", "sim.writes_per_op",
                    "omega.stabilize_steps", "omega.leader_changes",
                    "omega.write_share", "omega.punish_max",
                    "qa.rounds_per_op", "qa.publishes_per_op",
                    "core.steps_per_op", "core.fig7_steps"],
}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary, _ = run.build()
        os.makedirs(run.OUT_DIR, exist_ok=True)

    def twice(self, workload, seed=3, seconds=2, trace=1):
        return [run.run_workload(self.binary, workload,
                                 argparse.Namespace(seed=seed, seconds=seconds,
                                                    trace=trace))
                for _ in range(2)]

    def test_sim_step_metrics_repeat(self):
        for workload, names in STEP_METRICS.items():
            with self.subTest(workload=workload):
                a, b = self.twice(workload)
                self.assertEqual(a.get("exit"), b.get("exit"))
                compared = 0
                for name in names:
                    if name in a["metrics"] and name in b["metrics"]:
                        self.assertEqual(a["metrics"][name], b["metrics"][name],
                                         "%s.%s" % (workload, name))
                        compared += 1
                self.assertGreater(compared, 0, workload)
                if workload == "churn_sim":
                    self.assertEqual(compared, len(names))
                    self.assertEqual(a["checks"], b["checks"])

    def test_explore_repeats(self):
        a, b = self.twice("explore")
        self.assertTrue(a["correct"] and b["correct"])
        for name in ("verify.steps_per_run", "verify.distinct_states",
                     "verify.prune_ratio"):
            self.assertEqual(a["metrics"][name], b["metrics"][name], name)

    def test_held_out_seed_is_outside_tuning_range(self):
        self.assertNotIn(run.HELD_OUT_SEED, range(1, 11))

    def test_fails_without_library_sources(self):
        # A directory with only BENCHMARK.json and perfbench/ in it.
        iso = os.path.join(run.OUT_DIR, "isolated")
        shutil.rmtree(iso, ignore_errors=True)
        os.makedirs(iso)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), iso)
        shutil.copytree(run.BENCH_DIR, os.path.join(iso, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "explore",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=iso, capture_output=True, text=True, timeout=180)
        shutil.rmtree(iso, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            self.assertFalse(line.startswith("{") and "correct" in json.loads(line))


if __name__ == "__main__":
    unittest.main()
