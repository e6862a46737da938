"""The benchmark's own correctness gate, run on small iterations.

``perfbench/run.py`` rejects a run whose artifacts its gate cannot read or
does not accept.  Running that gate here turns an output change that would
break the benchmark into a test failure.  The harness modules are imported
from ``perfbench/`` as they are and are not edited.
"""

import importlib
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _iteration(workload, tmp_path, monkeypatch):
    """One CLI iteration of ``workload`` at 1% of its pairs, as the
    benchmark runs it; returns the harness modules, the configs per arm
    and the iteration's record."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    cfgs = workloads.make_configs(workload, 1, scale=0.01)
    paths = {}
    for arm, cfg in cfgs.items():
        paths[arm] = tmp_path / f"{arm}.json"
        paths[arm].write_text(json.dumps(cfg), encoding="utf-8")
    rec = workloads.run_cli_iteration(paths, tmp_path / "run", workloads.cli_jobs(workload))
    return checks, cfgs, rec


def test_quickstart_arms_pass_the_benchmark_gate(tmp_path, monkeypatch):
    checks, cfgs, rec = _iteration("quickstart", tmp_path, monkeypatch)
    for arm, cfg in cfgs.items():
        failures, _ = checks.check_cli_arm(tmp_path / "run" / arm, cfg, rec["exits"][arm])
        assert failures == [], arm


def test_dense_arm_passes_the_benchmark_gate(tmp_path, monkeypatch):
    # The dense workload also checks the matcher against its oracle on a
    # prefix of one point, and measures clusters and the observed share:
    # a failure in any of them counts as a failed operation.
    checks, cfgs, rec = _iteration("dense", tmp_path, monkeypatch)
    run_dir, cfg = tmp_path / "run" / "unfair", cfgs["unfair"]
    failures, _ = checks.check_cli_arm(run_dir, cfg, rec["exits"]["unfair"])
    assert failures == []
    window = cfg["coincidence_window_ticks"]
    mid = len(cfg["scan"]["angles_deg"]) // 2
    assert checks.check_matcher_prefix(run_dir, mid, window, 20_000) == []
    in_big, events = checks.cluster_gt2_frac(run_dir, mid, window)
    assert 0 < in_big <= events
    assert 0.0 < checks.observed_frac_block([cfg]) < 1.0
