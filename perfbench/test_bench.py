#!/usr/bin/env python3
"""Tests of the campaign benchmark itself.

    python3 perfbench/test_bench.py

A smoke-sized pass over all three workloads, traced and untraced, checks the
result line against BENCHMARK.json; two tamper tests check that the output
checks trip on a doctored summary.json and on a doctored bundle expectation.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC_FILE = os.path.join(run.ROOT, "BENCHMARK.json")
TEST_WORK = os.path.join(run.WORK, "tests")


def setUpModule():
    run.build()
    run.fresh_dir(TEST_WORK)


def tearDownModule():
    shutil.rmtree(TEST_WORK, ignore_errors=True)


class SmokeTest(unittest.TestCase):
    """Every workload prints every metric BENCHMARK.json names, with its unit."""

    @classmethod
    def setUpClass(cls):
        with open(SPEC_FILE) as f:
            cls.spec = json.load(f)

    def run_bench(self, workload, trace):
        out = subprocess.run(
            [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
             "--workload", workload, "--seed", "3", "--seconds", "0.5",
             "--trace", str(trace), "--smoke"],
            capture_output=True, text=True, cwd=run.ROOT, timeout=300)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        return json.loads(out.stdout.strip().splitlines()[-1])

    def check(self, workload, trace, expected):
        result = self.run_bench(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertLessEqual(result["failed"], result["attempted"])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in expected})
        return result["metrics"]

    def test_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, ["campaign-sim", "campaign-crashsafe", "triage-corpus"])
        for workload in names:
            with self.subTest(workload=workload):
                e2e = self.check(workload, 0, self.spec["end_to_end"])
                for name, m in e2e.items():
                    self.assertGreater(m["value"], 0, name)
                layer = self.check(workload, 1, self.spec["per_layer"])
                self.assertGreater(layer["trace_overhead"]["value"], 0)
                if workload == "campaign-crashsafe":
                    self.assertEqual(layer["dist.restarts"]["value"], 1)
                if workload == "triage-corpus":
                    self.assertGreater(layer["triage.sims"]["value"], 0)


class TamperTest(unittest.TestCase):

    def test_tampered_summary_trips_checks(self):
        spec = run.workload_spec("campaign-sim", 5, smoke=True)
        tree = os.path.join(TEST_WORK, "campaign")
        proc = run.run_campaign(spec, tree)
        self.assertEqual(proc.rc, 0, proc.log[-1000:])
        path = os.path.join(tree, "summary.json")
        reference = run.read_bytes(path)
        self.assertEqual(run.check_summary(tree, reference)[0], [])

        # A cache hit invented: bytes differ and the accounting breaks.
        doctored = re.sub(rb'"cache_hits": (\d+)',
                          lambda m: b'"cache_hits": %d' % (int(m.group(1)) + 1),
                          reference, count=1)
        with open(path, "wb") as f:
            f.write(doctored)
        errors = run.check_summary(tree, reference)[0]
        self.assertTrue(any("differs" in e for e in errors), errors)
        self.assertTrue(any("simulations + cache_hits" in e for e in errors), errors)

        # A byte-only change still trips the determinism check.
        with open(path, "wb") as f:
            f.write(reference + b"\n")
        self.assertTrue(run.check_summary(tree, reference)[0])

    def test_refused_winner_is_set_aside(self):
        spec = run.workload_spec("triage-corpus", 5, smoke=True)
        corpus = os.path.join(TEST_WORK, "corpus_refused")
        proc, errors = run.generate_corpus(spec, corpus)
        self.assertEqual(errors, [], proc.log[-1000:])
        self.assertEqual(run.refused_winners(spec, corpus), [])

        # A stamp equal to the duration: written by the campaign writers at
        # times, refused by the trace reader.
        cell = sorted(d for d in os.listdir(corpus)
                      if os.path.isdir(os.path.join(corpus, d)))[0]
        cell_dir = os.path.join(corpus, cell)
        winners = sorted(f for f in os.listdir(cell_dir) if f.startswith("winner_"))
        self.assertGreaterEqual(len(winners), 2)
        first = os.path.join(cell_dir, "winner_0.trace")
        text = run.read_bytes(first).decode()
        duration = re.search(r"# duration_ns (\d+)", text).group(1)
        with open(first, "a") as f:
            f.write(duration + "\n")
        refused = run.refused_winners(spec, corpus)
        self.assertEqual(refused, [f"{cell}/winner_0.trace"])

        copy = os.path.join(TEST_WORK, "corpus_refused_copy")
        run.copy_corpus(corpus, copy, refused)
        kept = sorted(f for f in os.listdir(os.path.join(copy, cell))
                      if f.startswith("winner_"))
        self.assertEqual(kept, winners[:-1])
        self.assertEqual(run.read_bytes(os.path.join(copy, cell, "winner_0.trace")),
                         run.read_bytes(os.path.join(cell_dir, "winner_1.trace")))
        rep, _ = run.triage_rep(spec, corpus, copy, None, refused)
        self.assertEqual(rep.errors, [])
        self.assertEqual(rep.failed, 0)
        self.assertEqual(rep.attempted, run.tracer("refused", spec, corpus)["winners"] - 1)

    def test_tampered_bundle_expectation_trips_replay(self):
        spec = run.workload_spec("triage-corpus", 5, smoke=True)
        corpus = os.path.join(TEST_WORK, "corpus")
        proc, errors = run.generate_corpus(spec, corpus)
        self.assertEqual(errors, [], proc.log[-1000:])
        triaged = os.path.join(TEST_WORK, "triaged")
        rep, _ = run.triage_rep(spec, corpus, triaged, None)
        self.assertEqual(rep.errors, [])

        findings = os.path.join(triaged, "findings")
        bundle = sorted(os.listdir(findings))[0]
        manifest = os.path.join(findings, bundle, "manifest.json")
        text = run.read_bytes(manifest).decode()
        doctored = re.sub(r'"expected_score": [^,]+,', '"expected_score": 1000,', text)
        self.assertNotEqual(doctored, text)
        with open(manifest, "w") as f:
            f.write(doctored)
        replay = run.run_proc(
            [run.ccfuzz_bin(), "replay", "--output", triaged] + run.matrix_flags(spec["matrix"]),
            run.workload_env(spec), triaged + ".replay.log")
        errors, failed = run.check_replay(replay, len(os.listdir(findings)))
        self.assertTrue(errors)
        self.assertEqual(failed, 1)


if __name__ == "__main__":
    unittest.main()
