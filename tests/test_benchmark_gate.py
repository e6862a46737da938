"""The benchmark's own correctness gate, run on a small quick-start iteration.

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


def test_quickstart_arms_pass_the_benchmark_gate(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    cfgs = workloads.make_configs("quickstart", 1, scale=0.01)
    paths = {}
    for arm, cfg in cfgs.items():
        paths[arm] = tmp_path / f"{arm}.json"
        paths[arm].write_text(json.dumps(cfg), encoding="utf-8")
    rec = workloads.run_cli_iteration(paths, tmp_path / "run")
    for arm, cfg in cfgs.items():
        failures, _ = checks.check_cli_arm(tmp_path / "run" / arm, cfg, rec["exits"][arm])
        assert failures == [], arm
