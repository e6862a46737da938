"""Self-tests for the benchmark harness.

    python3 perfbench/selftest.py

Tiny runs of every workload must print every declared metric with its
unit, and the gate must reject deliberately wrong results.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fairsample import cli, coincidence  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny_run(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for workload in workloads.NAMES:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    stdout, result = _tiny_run(workload, trace)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"}
                    )
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual(set(result["metrics"]), set(declared))
                    for name, m in result["metrics"].items():
                        self.assertEqual(m["unit"], declared[name])
                        self.assertTrue(math.isfinite(m["value"]), name)
                        self.assertIn(name, stdout)
                    self.assertIn("fail_frac", stdout)
                    if workload != "ensemble":
                        # At 1% size the ensemble's unfair scans are too
                        # small for its amplitude bound; the others pass.
                        self.assertTrue(result["correct"], stdout)


class CliGate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp())
        cls.cfg = workloads.make_configs("quickstart", 5, scale=0.01)["unfair"]
        cfg_path = cls.tmp / "unfair.json"
        cfg_path.write_text(json.dumps(cls.cfg), encoding="utf-8")
        rec = workloads.run_cli_iteration({"unfair": cfg_path}, cls.tmp / "run")
        cls.exits = rec["exits"]["unfair"]
        cls.clean = cls.tmp / "run" / "unfair"

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def _copy(self) -> Path:
        dst = Path(tempfile.mkdtemp(dir=self.tmp)) / "arm"
        shutil.copytree(self.clean, dst)
        return dst

    def test_clean_run_passes(self):
        failures, info = checks.check_cli_arm(self.clean, self.cfg, self.exits)
        self.assertEqual(failures, [])
        self.assertIn("b_plus_z", info)

    def test_nonzero_exit_fails_the_scan(self):
        failures, _ = checks.check_cli_arm(
            self.clean, self.cfg, {**self.exits, "analyze": 3}
        )
        self.assertEqual(failures[0][0], None)

    def test_perturbed_counts_fail_their_point(self):
        run_dir = self._copy()
        path = run_dir / "counts.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        row = lines[4].split(",")
        col = header.index("s_b_minus")
        row[col] = str(int(row[col]) + 1)
        lines[4] = ",".join(row)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        failures, _ = checks.check_cli_arm(run_dir, self.cfg, self.exits)
        self.assertIn(3, [point for point, _ in failures])

    def test_flipped_verdict_fails(self):
        run_dir = self._copy()
        path = run_dir / "nosignalling.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["report"]["consistent"] = not doc["report"]["consistent"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        failures, _ = checks.check_cli_arm(run_dir, self.cfg, self.exits)
        self.assertTrue(any("consistent" in msg for _, msg in failures))

    def test_flipped_report_text_fails(self):
        run_dir = self._copy()
        path = run_dir / "report.md"
        text = path.read_text(encoding="utf-8")
        shown, flipped = "fair sampling consistent", "fair sampling REJECTED"
        if shown not in text:
            shown, flipped = flipped, shown
        path.write_text(text.replace(shown, flipped), encoding="utf-8")
        failures, _ = checks.check_cli_arm(run_dir, self.cfg, self.exits)
        self.assertTrue(any("report.md" in msg for _, msg in failures))

    def test_singles_against_the_wrong_policy_fail(self):
        fair = {**self.cfg, "policy": {"kind": "fair", "d": 0.0}}
        failures, _ = checks.check_cli_arm(self.clean, fair, self.exits)
        self.assertTrue(any("s_a_plus" in msg for _, msg in failures))

    def test_matcher_mismatch_is_caught(self):
        self.assertEqual(checks.check_matcher_prefix(self.clean, 2, 250, 500), [])
        real = coincidence.count_coincidences

        def off_by_one(*args, **kwargs):
            from dataclasses import replace

            counts = real(*args, **kwargs)
            return replace(counts, s_a_plus=counts.s_a_plus + 1)

        coincidence.count_coincidences = off_by_one
        try:
            failures = checks.check_matcher_prefix(self.clean, 2, 250, 500)
        finally:
            coincidence.count_coincidences = real
        self.assertEqual(len(failures), 1)


class EnsembleGate(unittest.TestCase):
    cfg = workloads.make_configs("ensemble", 0)["unfair"]
    n = 21 * 600_000

    def _summary(self, **changes):
        expect = checks.singles_expectation(self.cfg, 21)
        summary = {
            "n_points": 21, "skipped": 0, "pairs": self.n, "coincidences": 0,
            "singles": {ch: round(mean) for ch, (mean, _) in expect.items()},
            "error": None, "z": 8.0, "p": 1e-9, "consistent": False,
        }
        summary.update(changes)
        return summary

    def test_expected_scan_passes(self):
        self.assertEqual(checks.check_ensemble_scan(self._summary(), self.cfg, "unfair"), [])

    def test_unfair_scan_without_signal_fails(self):
        flipped = self._summary(z=0.8, p=0.6, consistent=True)
        self.assertEqual(len(checks.check_ensemble_scan(flipped, self.cfg, "unfair")), 1)
        self.assertEqual(checks.check_ensemble_scan(flipped, self.cfg, "fair"), [])

    def test_perturbed_singles_fail(self):
        summary = self._summary()
        summary["singles"]["s_b_plus"] += 20_000  # about 17 sigma
        self.assertEqual(len(checks.check_ensemble_scan(summary, self.cfg, "unfair")), 1)

    def test_fit_error_fails(self):
        failed = self._summary(error="InsufficientPoints: 3 usable points")
        self.assertEqual(len(checks.check_ensemble_scan(failed, self.cfg, "unfair")), 1)


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        parent = spans.Span(0, "pipeline.analyze_run", 0.0, 10.0, None, 1)
        kids = [
            spans.Span(1, "timetags.read_ttg", 1.0, 4.0, 0, 2),
            spans.Span(2, "timetags.read_ttg", 3.0, 5.0, 0, 3),
            spans.Span(3, "coincidence.count_coincidences", 9.0, 12.0, 0, 2),
        ]
        self.assertAlmostEqual(spans.self_time(parent, kids), 10.0 - 4.0 - 1.0)

    def test_wrappers_see_calls_through_every_namespace(self):
        from fairsample import pipeline, timetags

        original = timetags.read_ttg
        with tempfile.TemporaryDirectory() as tmp:
            cfg = workloads.make_configs("dense", 1, scale=0.002)["unfair"]
            path = Path(tmp) / "c.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            with spans.Tracer() as tracer:
                self.assertIsNot(pipeline.read_ttg, original)
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(["simulate", "--config", str(path), "--output-dir",
                                   str(Path(tmp) / "o"), "--jobs", "2"])
            self.assertEqual(rc, 0)
        self.assertIs(timetags.read_ttg, original)
        self.assertIs(pipeline.read_ttg, original)
        by_id = {s.id: s for s in tracer.spans}
        n_points = len(cfg["scan"]["angles_deg"])
        det = [s for s in tracer.spans if s.name == "detection.simulate_pair_detections"]
        self.assertEqual(len(det), n_points)
        for s in det:
            self.assertEqual(by_id[s.parent].name, "pipeline.simulate_run")
        metrics = spans.layer_metrics(tracer.spans)
        self.assertGreater(metrics["timetags.bytes"], 0)
        self.assertGreater(metrics["pipeline.simulate_run.parallel_eff"], 0)


class Declarations(unittest.TestCase):
    def test_layer_map_matches_the_declared_metrics(self):
        layer_map = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))
        names = [m for group in layer_map["groups"] for m in group["metrics"]]
        self.assertEqual(sorted(names), sorted(m["name"] for m in SPEC["per_layer"]))
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        # ensemble can be run by hand but is not declared (see README).
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.NAMES))
        for group in layer_map["groups"]:
            for effect in group["effects"]:
                self.assertIn(effect["workload"], workloads.NAMES)
                self.assertLessEqual(set(effect["end_to_end"]), end_to_end)


class Accounting(unittest.TestCase):
    def test_scan_level_failure_fails_every_point(self):
        ledger = run.Ledger()
        ledger.scan((0, "fair"), 21, [])
        ledger.scan((0, "unfair"), 21, [(None, "simulate ended with 2"), (4, "x")])
        self.assertEqual((ledger.attempted, len(ledger.failed)), (42, 21))
        self.assertEqual(len(ledger.messages), 2)


if __name__ == "__main__":
    unittest.main()
