#!/usr/bin/env python3
"""Self-tests of the benchmark's checks, tracing and compare verdicts.

    python3 perfbench/selftest.py

Runs a few real children (about half a minute on two cores).
"""

import os
import shutil
import unittest

import child
import run
import tracing
from workloads import WORKLOADS

SEED = 1


def run_kept(test, workload, trace):
    """Run one child and keep its work directory until the test ends."""
    workdir = os.path.join(run.WORK, "work",
                           f"selftest-{workload}-{trace}-{os.getpid()}")
    test.addCleanup(shutil.rmtree, workdir, True)
    result, spans = run.run_child(workload, SEED, trace, workdir, timeout=300)
    test.assertIsNotNone(result, f"{workload} child failed")
    return workdir, result, spans


class SelfTimes(unittest.TestCase):
    def test_synthetic_spans(self):
        spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0],
                 ["b", 2.0, 3.0, 1], ["a", 5.0, 9.0, 0]]
        self.assertEqual(tracing.self_times(spans), [3.0, 2.0, 1.0, 4.0])
        m = tracing.layer_metrics(spans, {})
        self.assertEqual(m["trace.spans"], 4)


class Outputs(unittest.TestCase):
    def test_flipped_byte_is_a_failure(self):
        workdir, result, _ = run_kept(self, "flow-cotangent", 0)
        recorded = {e["config"]: e["digests"] for e in result["experiments"]}
        self.assertEqual(run.check_children([result], 1, recorded)[:2], (1, 0))

        outdir = os.path.join(workdir, "out", "flow")
        path = os.path.join(outdir, "snapshots.csv")
        with open(path, "r+b") as fh:
            fh.seek(40)
            byte = fh.read(1)
            fh.seek(40)
            fh.write(bytes([byte[0] ^ 1]))
        result["experiments"][0]["digests"] = child.digest_outputs(outdir)
        attempted, failed, problems = run.check_children([result], 1, recorded)
        self.assertEqual((attempted, failed), (1, 1))
        self.assertIn("snapshots.csv", problems[0])

    def test_false_flag_and_exit_code_are_failures(self):
        exp = {"config": "wep.json", "exit_code": 3, "digests": {},
               "flags": {"monotonic_ok": False}}
        self.assertEqual(len(run.check_experiment(exp, None)), 2)

    def test_tracing_keeps_outputs_and_self_times_add_up(self):
        workload = "stats-suite"
        _, plain, _ = run_kept(self, workload, 0)
        _, traced, spans = run_kept(self, workload, 1)
        self.assertEqual([e["digests"] for e in plain["experiments"]],
                         [e["digests"] for e in traced["experiments"]])
        self.assertEqual(traced["layers"]["cli.ops"], len(WORKLOADS[workload]))

        # Every span's self time plus its children's durations is its own
        # duration, so the self times of a root's subtree sum to the root.
        own = tracing.self_times(spans)
        subtree = list(own)
        for i in range(len(spans) - 1, -1, -1):
            parent = spans[i][3]
            if parent >= 0:
                subtree[parent] += subtree[i]
        for i, (name, start, end, parent) in enumerate(spans):
            self.assertGreaterEqual(own[i], -1e-9, name)
            if parent < 0:
                self.assertAlmostEqual(subtree[i], end - start, places=9)

    def test_benchmark_json_names_every_reported_metric(self):
        bench = run.load_benchmark()
        self.assertEqual([m["name"] for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        layers = tracing.layer_metrics([], {})
        reported = set(layers) | {"trace.overhead_s", "failed_frac"}
        self.assertEqual({m["name"] for m in bench["per_layer"]}, reported)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(WORKLOADS))


class Verdicts(unittest.TestCase):
    def side(self, values):
        return list(enumerate(values))

    def test_verdicts(self):
        base = self.side([10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98,
                          10.03, 9.97])
        faster = self.side([v * 0.8 for _, v in base])
        slower = self.side([v * 1.2 for _, v in base])
        noisy = self.side([6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0,
                           10.0])
        self.assertEqual(run.verdict(base, base, 0.1, "lower"), "unchanged")
        self.assertEqual(run.verdict(base, faster, 0.1, "lower"), "better")
        self.assertEqual(run.verdict(base, slower, 0.1, "lower"), "worse")
        self.assertEqual(run.verdict(base, noisy, 0.1, "lower"), "unresolved")
        self.assertEqual(run.verdict(base, slower, 0.1, "higher"), "better")


if __name__ == "__main__":
    unittest.main()
