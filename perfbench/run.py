#!/usr/bin/env python3
"""fairsample benchmark: three workloads, a correctness gate, a traced run.

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 55 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  A run lasts about ``--seconds`` seconds, set-up
probes included: after the probes and one untimed warm-up repetition at
2% size, the workload repeats until the time is up.  Stage times are
means over the repetitions and ``setup_s`` is the median of the probes.  With
``--trace 0`` the result line carries the end-to-end metrics declared in
BENCHMARK.json; with ``--trace 1`` untraced and traced repetitions
alternate and the line carries the per-layer metrics instead.  The last
line of standard output is the JSON result; the lines before it repeat
every metric with its unit, the failure fraction, the workload-property
counters and the provenance.  The full record, and the spans of a traced
run, are written under ``.bench_work/results/``.

Exit codes: 0 when the workload ran (the gate's verdict is in the
result), 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Kept out of every run made while developing a change; a later claim of a
# gain must also hold on this seed.
HELD_OUT_SEED = 20060606
SETUP_PROBES = 5
WARM_UP_SCALE = 0.02
PREFIX_EVENTS = 20_000


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed probe)."""


def _args(argv):
    parser = argparse.ArgumentParser(description="fairsample benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply pairs per point (self-tests run tiny sizes)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _probe(config_paths: list[Path], importtime: bool) -> tuple[float, float]:
    """One fresh interpreter: (wall seconds, seconds importing fairsample.fits)."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "setup_probe.py"), str(SRC)] + [str(p) for p in config_paths]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    fits_s = 0.0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and parts[-1].strip() == "fairsample.fits":
            fits_s = int(parts[1]) / 1e6
    return wall, fits_s


def _import_package():
    sys.path.insert(0, str(SRC))
    import fairsample

    if not Path(fairsample.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"fairsample imported from {fairsample.__file__}, not {SRC}")
    return fairsample


def _provenance(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT.resolve():
            commit = lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "fairsample").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
        "matcher_backend": "numba" if numba_imports else "python",
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


class Ledger:
    """Operations attempted and failed, with every failure message kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: set = set()
        self.messages: list[str] = []

    def scan(self, key: tuple, n_ops: int, failures: list) -> None:
        """Record one scan of ``n_ops`` operations and its gate failures.

        A failure naming a point fails that point; one naming ``None``
        fails every operation of the scan.
        """
        self.attempted += n_ops
        for point, msg in failures:
            self.messages.append(f"{key}: {msg}")
            targets = range(n_ops) if point is None else [point]
            self.failed.update((key, p) for p in targets)


def _run_cli(args, cfgs: dict, cfg_paths: dict, work: Path, ledger: Ledger):
    jobs = workloads.cli_jobs(args.workload)
    pairs = sum(len(c["scan"]["angles_deg"]) * c["pairs_per_point"] for c in cfgs.values())
    info: dict = {}

    def iteration(k: int) -> dict:
        return workloads.run_cli_iteration(cfg_paths, work / f"iter{k}", jobs)

    def gate(k: int, rec: dict) -> None:
        rec["pairs"] = pairs
        for arm, cfg in cfgs.items():
            try:
                failures, arm_info = checks.check_cli_arm(
                    work / f"iter{k}" / arm, cfg, rec["exits"][arm]
                )
            except (OSError, ValueError, KeyError) as exc:
                failures, arm_info = [(None, f"unreadable artifacts: {exc!r}")], {}
            ledger.scan((k, arm), len(cfg["scan"]["angles_deg"]), failures)
            info[arm] = arm_info
        shutil.rmtree(work / f"iter{k - 1}", ignore_errors=True)

    def finish(k_last: int) -> dict:
        last = work / f"iter{k_last}"
        props = {"detection.observed_frac": checks.observed_frac_block(list(cfgs.values()))}
        in_big = events = 0
        for arm, cfg in cfgs.items():
            mid = len(cfg["scan"]["angles_deg"]) // 2
            if (last / arm / "manifest.json").exists():
                a, b = checks.cluster_gt2_frac(last / arm, mid, cfg["coincidence_window_ticks"])
                in_big, events = in_big + a, events + b
        props["coincidence.cluster_gt2_frac"] = in_big / events if events else 0.0
        if args.workload == "dense":
            cfg = cfgs["unfair"]
            n_points = len(cfg["scan"]["angles_deg"])
            point = args.seed % n_points
            if (last / "unfair" / "manifest.json").exists():
                failures = checks.check_matcher_prefix(
                    last / "unfair", point, cfg["coincidence_window_ticks"], PREFIX_EVENTS
                )
                ledger.scan((k_last, "unfair"), 0, [(point, m) for m in failures])
        props["arms"] = info
        return props

    return iteration, gate, finish


def _run_ensemble(args, cfgs: dict, ledger: Ledger):
    from fairsample import config

    parsed = {arm: config.config_from_dict(doc) for arm, doc in cfgs.items()}
    scans: list[dict] = []

    def iteration(k: int) -> dict:
        return workloads.run_ensemble_iteration(parsed, k)

    def gate(k: int, rec: dict) -> None:
        for arm, summary in rec["scans"].items():
            failures = checks.check_ensemble_scan(summary, cfgs[arm], arm)
            ledger.scan((k, arm), 1, [(0, m) for m in failures])
            scans.append({"arm": arm, **summary})
        rec["pairs"] = sum(s["pairs"] for s in rec["scans"].values())

    def finish(k_last: int) -> dict:
        singles = sum(sum(s["singles"].values()) for s in scans)
        observed = singles - sum(s["coincidences"] for s in scans)
        fair = [s for s in scans if s["arm"] == "fair"]
        unfair_z = [s.get("z", float("nan")) for s in scans if s["arm"] == "unfair"]
        return {
            "detection.observed_frac": observed / sum(s["pairs"] for s in scans),
            "coincidence.cluster_gt2_frac": None,
            "fair_scans": len(fair),
            "fair_rejections": sum(1 for s in fair if s.get("p", 1.0) < checks.FAIR_ALPHA),
            "unfair_min_z": min(unfair_z),
        }

    return iteration, gate, finish


def _loop(args, start: float, iteration, gate, traced_spans: list) -> list[dict]:
    """Repeat the workload until about ``--seconds`` after ``start``.

    ``start`` is when the run began, so set-up counts against the budget.
    With tracing, untraced and traced repetitions alternate and at least
    one of each runs.  The gate runs after each repetition, untimed.
    """
    records = []
    min_iters = 2 if args.trace else 1
    loop_start = time.perf_counter()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        tracer = spans.Tracer() if traced else None
        with tracer or nullcontext():
            rec = iteration(k)
        rec["traced"] = traced
        if traced:
            rec["layers"] = spans.layer_metrics(tracer.spans)
            traced_spans.append([vars(s) for s in tracer.spans])
        gate(k, rec)
        records.append(rec)
        k += 1
        now = time.perf_counter()
        if k >= min_iters and now - start + 0.5 * (now - loop_start) / k >= args.seconds:
            return records


def _warm_up(args, work: Path) -> None:
    """One untimed repetition at WARM_UP_SCALE of the workload's size.

    It imports every module the workload uses and runs each code path once,
    so that the first timed repetition is not the only one paying for lazy
    imports and first calls.
    """
    cfgs = workloads.make_configs(args.workload, args.seed, args.scale * WARM_UP_SCALE)
    if args.workload == "ensemble":
        from fairsample import config

        workloads.run_ensemble_iteration(
            {arm: config.config_from_dict(doc) for arm, doc in cfgs.items()}, 0
        )
        return
    paths = {}
    for arm, cfg in cfgs.items():
        paths[arm] = work / f"warm-{arm}.json"
        paths[arm].write_text(json.dumps(cfg), encoding="utf-8")
    workloads.run_cli_iteration(paths, work / "warm", workloads.cli_jobs(args.workload))
    shutil.rmtree(work / "warm", ignore_errors=True)


def run(args) -> dict:
    start = time.perf_counter()
    if not (SRC / "fairsample" / "__init__.py").is_file():
        raise BenchError(f"no fairsample sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{time.time_ns()}"
    work.mkdir()
    try:
        cfgs = workloads.make_configs(args.workload, args.seed, args.scale)
        cfg_paths = {}
        for arm, cfg in cfgs.items():
            cfg_paths[arm] = work / f"{arm}.json"
            cfg_paths[arm].write_text(json.dumps(cfg), encoding="utf-8")
        probes = [
            _probe(list(cfg_paths.values()), importtime=bool(args.trace))
            for _ in range(SETUP_PROBES)
        ]
        _import_package()
        _warm_up(args, work)

        ledger = Ledger()
        if args.workload == "ensemble":
            iteration, gate, finish = _run_ensemble(args, cfgs, ledger)
        else:
            iteration, gate, finish = _run_cli(args, cfgs, cfg_paths, work, ledger)
        traced_spans: list = []
        records = _loop(args, start, iteration, gate, traced_spans)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        props = finish(len(records) - 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Stage times are per repetition, averaged over the whole run: the
    # host's speed moves within seconds, and the mean of 4-7 repetitions
    # follows it less than their median does.
    plain = [r for r in records if not r["traced"]]
    end_to_end = {
        "setup_s": statistics.median([p[0] for p in probes]),
        "wall_s": statistics.fmean([r["wall_s"] for r in plain]),
        "simulate_s": statistics.fmean([r["simulate_s"] for r in plain]),
        "analyze_s": statistics.fmean([r["analyze_s"] for r in plain]),
        "pairs_per_s": sum(r["pairs"] for r in plain) / sum(r["wall_s"] for r in plain),
        "peak_rss_mb": peak_rss_mb,
    }
    traced = [r for r in records if r["traced"]]
    per_layer = {}
    if traced:
        for name in traced[0]["layers"]:
            per_layer[name] = statistics.median([r["layers"][name] for r in traced])
        per_layer["detection.observed_frac"] = props["detection.observed_frac"]
        per_layer["coincidence.cluster_gt2_frac"] = props["coincidence.cluster_gt2_frac"] or 0.0
        per_layer["import.fits_s"] = statistics.median([p[1] for p in probes])
        per_layer["trace.overhead_frac"] = (
            statistics.median([r["wall_s"] for r in traced]) / end_to_end["wall_s"] - 1.0
        )

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = per_layer if args.trace else end_to_end
    missing = [m["name"] for m in declared if m["name"] not in source]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in declared}
    failed = len(ledger.failed)
    return {
        "workload": args.workload,
        "trace": args.trace,
        "scale": args.scale,
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "fail_frac": failed / ledger.attempted,
        "failures": ledger.messages,
        "metrics": metrics,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "properties": props,
        "iterations": [
            {k: r[k] for k in ("wall_s", "cpu_s", "simulate_s", "analyze_s", "traced")}
            for r in records
        ],
        "setup_probes_s": [p[0] for p in probes],
        "provenance": _provenance(args.seed),
        "spans": traced_spans,
    }


def _print_summary(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['provenance']['seed']}  "
          f"trace {result['trace']}  iterations {len(result['iterations'])}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':48s} {result['fail_frac']:.6g} frac "
          f"({result['failed']} of {result['attempted']} operations)")
    for msg in result["failures"]:
        print(f"  FAILED {msg}")
    print("  properties " + json.dumps(result["properties"], default=str))
    print("  provenance " + json.dumps(result["provenance"]))


def main(argv=None) -> int:
    args = _args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    _print_summary(result)
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
