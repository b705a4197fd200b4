#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the runner like run.py does, then check that:
- PageRank at 8 GPNs gives identical simulated counters at 1 and 4 host
  threads (a reduced graph keeps this quick), so the host thread count
  of `pr_rmat_8gpn_t1` changes only the host, never the simulated
  machine;
- a short run of each workload validates, repeats its counters, and
  prints every metric that BENCHMARK.json names;
- run.py fails without printing a result when src/ is missing.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the module under test)


def runner_reps(*args):
    out = subprocess.run([str(run.build()), *args], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    records = [json.loads(line) for line in out.splitlines()]
    return [r for r in records if r["type"] == "rep"]


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seconds", "0.1", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=ROOT)
    return proc.returncode, proc.stdout.strip().splitlines()


class ThreadInvariance(unittest.TestCase):
    def test_pagerank_counters_do_not_depend_on_host_threads(self):
        common = ["--workload=pr_rmat_8gpn_t1", "--reduced", "--seed=3",
                  "--seconds=0.01"]
        one = runner_reps(*common, "--threads=1")
        four = runner_reps(*common, "--threads=4")
        for reps in (one, four):
            self.assertTrue(all(r["ok"] for r in reps))
        self.assertEqual(one[0]["values"]["host.threads"], 1)
        self.assertEqual(four[0]["values"]["host.threads"], 4)
        counters = [run.model_counters(r) for r in one + four]
        self.assertGreater(counters[0]["sim.events"], 0)
        self.assertGreater(counters[0]["noc.cross_gpn_messages"], 0)
        for c in counters[1:]:
            self.assertEqual(c, counters[0])


class Workloads(unittest.TestCase):
    def test_every_workload_prints_every_named_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = {0: [m["name"] for m in spec["end_to_end"]],
                 1: [m["name"] for m in spec["per_layer"]]}
        workloads = [w["name"] for w in spec["workloads"]]
        self.assertEqual(sorted(workloads), sorted(run.WORKLOADS))
        for workload in workloads:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, lines = bench(workload, trace)
                    self.assertEqual(code, 0)
                    result = json.loads(lines[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(sorted(result["metrics"]),
                                     sorted(names[trace]))


class MissingSources(unittest.TestCase):
    def test_fails_without_result_when_src_is_absent(self):
        bare = ROOT / ".bench_build" / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "sssp_rmat_1gpn", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            cwd=bare, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
