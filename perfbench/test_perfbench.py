#!/usr/bin/env python3
"""Smoke tests of the benchmark itself.

    python3 perfbench/test_perfbench.py      # from the repository root

For each workload, a short --smoke run untraced and traced asserts that
the printed metric names equal those declared in BENCHMARK.json, that
in the traced run no child span outlasts its parent and the layer self
times sum to at most the traced wall, and that passes, processes and
the two runs give the same stats digest. The traced report's tracing
overhead line is echoed.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_grids", "long_sessions", "ssl_server")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"] for m in bench["end_to_end"]},
            {m["name"] for m in bench["per_layer"]}, bench)


def run_bench(workload, trace, seed=7, env=None, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    res = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=600)
    return res


def report_value(stdout, prefix):
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].split()[0]
    raise AssertionError(f"no '{prefix}' line in:\n{stdout}")


class Smoke(unittest.TestCase):
    def check_workload(self, workload):
        end_to_end, per_layer, _ = declared()
        plain = run_bench(workload, 0)
        self.assertEqual(plain.returncode, 0, plain.stderr)
        result = json.loads(plain.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), end_to_end)
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)

        traced = run_bench(workload, 1)
        self.assertEqual(traced.returncode, 0, traced.stderr)
        tresult = json.loads(traced.stdout.strip().splitlines()[-1])
        self.assertTrue(tresult["correct"])
        self.assertEqual(set(tresult["metrics"]), per_layer)
        print(f"\n{workload}: tracing overhead "
              + report_value(traced.stdout, "tracing overhead: ") + " s")

        # Same seed, same statistics: the untraced passes and the traced
        # run compute one digest.
        self.assertEqual(report_value(plain.stdout, "digest: "),
                         report_value(traced.stdout, "digest: "))

        sidecar = traced.stdout.split(" written to ", 1)[1].split()[0]
        with open(os.path.join(ROOT, sidecar)) as f:
            events = json.load(f)["traceEvents"]
        self.check_spans(events)

    def check_spans(self, events):
        by_id = {e["args"]["id"]: e for e in events}
        self_us = {i: e["dur"] for i, e in by_id.items()}
        wall = 0.0
        slack = 0.002  # the sidecar rounds times to 1 ns
        for e in events:
            parent = e["args"]["parent"]
            if parent < 0:
                wall += e["dur"]
                continue
            p = by_id[parent]
            self.assertGreaterEqual(e["ts"] + slack, p["ts"], e["name"])
            self.assertLessEqual(e["ts"] + e["dur"],
                                 p["ts"] + p["dur"] + slack, e["name"])
            self_us[parent] -= e["dur"]
        layer_self = sum(v for i, v in self_us.items()
                         if by_id[i]["args"]["parent"] >= 0)
        self.assertLessEqual(layer_self, wall + slack)

    def test_paper_grids(self):
        self.check_workload("paper_grids")

    def test_long_sessions(self):
        self.check_workload("long_sessions")

    def test_ssl_server(self):
        self.check_workload("ssl_server")

    def test_refuses_cryptarch_knobs(self):
        env = dict(os.environ, CRYPTARCH_TRACE_COMPRESS="off")
        res = run_bench("paper_grids", 0, env=env)
        self.assertNotEqual(res.returncode, 0)
        self.assertEqual(res.stdout.strip(), "")

    def test_fails_without_sources(self):
        lone = os.path.join(ROOT, ".bench_build", "lone_checkout")
        shutil.rmtree(lone, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(lone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        try:
            res = run_bench("paper_grids", 0, cwd=lone)
            self.assertNotEqual(res.returncode, 0)
            self.assertEqual(res.stdout.strip(), "")
        finally:
            shutil.rmtree(lone, ignore_errors=True)

    def test_layer_map_covers_per_layer_metrics(self):
        end_to_end, per_layer, bench = declared()
        with open(os.path.join(HERE, "layers.json")) as f:
            layers = json.load(f)
        self.assertEqual(set(layers["per_layer"]), per_layer)
        workloads = {w["name"] for w in bench["workloads"]}
        self.assertEqual(workloads, set(WORKLOADS))
        for name, entry in layers["per_layer"].items():
            for metric, workload in entry["moves"]:
                self.assertIn(metric, end_to_end, name)
                self.assertIn(workload, workloads, name)


if __name__ == "__main__":
    unittest.main(verbosity=2)
