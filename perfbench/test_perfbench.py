#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perfbench/test_perfbench.py

Builds perfbench_driver (as run.py does) and checks that
  * fleet_echo and fleet_echo_sharded, the two parts of the fleet
    workload, report identical simulated metrics;
  * one seed reproduces every simulated metric exactly, and another seed
    changes the generated inputs;
  * a traced repetition emits every per-layer metric BENCHMARK.json names,
    layers a workload does not use read zero, and spans attribute at least
    90% of the repetition's wall time;
  * run.py fails, without printing a result, where src/ is absent.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def sim_metrics(rep):
    """Every simulated-time quantity of one repetition."""
    return {"p50_ms": rep["p50_ms"], "p99_ms": rep["p99_ms"],
            "issued": rep["issued"], "completed": rep["completed"],
            **rep["sim"]}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")

    def test_sharded_matches_sequential(self):
        seq = run.run_rep("fleet_echo", 5, False)
        par = run.run_rep("fleet_echo_sharded", 5, False)
        self.assertEqual(seq["sim"]["sharded.shards"], 1)
        self.assertEqual(par["sim"]["sharded.shards"], 2)
        keys = ["sim.events_executed"] + [
            "net.frames_sent." + c for c in run.FRAME_CLASSES]
        for key in ("p50_ms", "p99_ms", "issued", "completed"):
            self.assertEqual(seq[key], par[key], key)
        for key in keys:
            self.assertEqual(seq["sim"][key], par["sim"][key], key)
        self.assertEqual(seq["inputs_digest"], par["inputs_digest"])

    def test_seed_reproduces_and_varies(self):
        for workload in ("fleet_echo", "nfs_ramp", "policy_sweep"):
            with self.subTest(workload=workload):
                a = run.run_rep(workload, 3, False)
                b = run.run_rep(workload, 3, False)
                c = run.run_rep(workload, 4, False)
                self.assertEqual(sim_metrics(a), sim_metrics(b))
                self.assertEqual(a["inputs_digest"], b["inputs_digest"])
                self.assertNotEqual(a["inputs_digest"], c["inputs_digest"])
                self.assertNotEqual(sim_metrics(a), sim_metrics(c))

    def test_traced_repetition_emits_every_layer_metric(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                rep = run.run_rep(workload, 9, True)
                self.assertEqual(run.problems([rep]), [])
                values = run.per_layer([rep], [rep], [run.run_reference()])
                self.assertEqual(set(values), names)
                self.assertGreaterEqual(values["trace.coverage"], 0.90)
                if workload != "fleet":
                    for name in names:
                        if name.startswith(("sharded.", "prof.sharded.")):
                            self.assertEqual(values[name], 0, name)
                else:
                    self.assertGreater(values["sharded.barriers"], 0)

    def test_workloads_match_spec(self):
        self.assertEqual(set(run.WORKLOADS),
                         {w["name"] for w in SPEC["workloads"]})

    def test_end_to_end_names_match_spec(self):
        self.assertEqual(set(run.END_TO_END_UNITS),
                         {m["name"] for m in SPEC["end_to_end"]})
        for m in SPEC["end_to_end"]:
            self.assertEqual(run.END_TO_END_UNITS[m["name"]], m["unit"])
        for m in SPEC["per_layer"]:
            self.assertEqual(run.layer_unit(m["name"]), m["unit"], m["name"])

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(run.ROOT, path),
                                os.path.join(tmp, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                SPEC["command"] + ["--workload", "nfs_policy", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
