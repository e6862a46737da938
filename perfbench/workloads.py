"""The three workloads: config dicts made from the seed, and one iteration each.

Every workload hands fairsample only config dicts in the documented
schema.  ``quickstart`` and ``dense`` go through ``fairsample.cli.main``
in-process (simulate -> analyze -> report), ``ensemble`` calls the block
API directly.  Functions are looked up on their modules at call time so
that the tracer's wrappers see the calls.

All workloads use the singlet source (p = 1), whose single-station
outcome probabilities are 1/2 at every angle; the correctness gate relies
on that.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import time
from pathlib import Path

from checks import CHANNELS

ALL_ANGLES = [9.0 * i for i in range(21)]

QUICKSTART = {
    "schema_version": 1,
    "source": {"p": 1.0},
    "efficiencies": {"a_plus": 0.10, "a_minus": 0.05, "b_plus": 0.08, "b_minus": 0.08},
    "policy": {"kind": "fair", "d": 0.0},
    "scan": {"varied": "alice", "angles_deg": ALL_ANGLES, "fixed_angle_deg": 0.0},
    "pairs_per_point": 1_000_000,
    "pair_rate_hz": 250.0,
    "tick_resolution_ps": 1000,
    "jitter_sd_ticks": 50.0,
    "coincidence_window_ticks": 250,
    "dark_rate_hz": 0.0,
}

# Six points instead of the 21 of a full scan keep an iteration near 7 s on
# two cores while staying above the 5 points the fits need.
DENSE = {
    **QUICKSTART,
    "efficiencies": {"a_plus": 0.9, "a_minus": 0.9, "b_plus": 0.9, "b_minus": 0.9},
    "policy": {"kind": "unfair_malus", "d": 0.5},
    "scan": {"varied": "alice", "angles_deg": [0.0, 36.0, 72.0, 108.0, 144.0, 180.0],
             "fixed_angle_deg": 0.0},
    "pair_rate_hz": 1.0e6,
    "coincidence_window_ticks": 500,
    "dark_rate_hz": 2.0e5,
}

ENSEMBLE = {
    **QUICKSTART,
    "efficiencies": {"a_plus": 0.35, "a_minus": 0.35, "b_plus": 0.35, "b_minus": 0.35},
    "pairs_per_point": 600_000,
}

UNFAIR = {"kind": "unfair_malus", "d": 0.5}
FAIR = {"kind": "fair", "d": 0.0}

NAMES = ("quickstart", "dense", "ensemble")


def make_configs(workload: str, seed: int, scale: float = 1.0) -> dict[str, dict]:
    """Config dict per arm; ``scale`` shrinks pairs_per_point for self-tests."""
    if workload == "quickstart":
        arms = {"fair": (QUICKSTART, FAIR), "unfair": (QUICKSTART, UNFAIR)}
    elif workload == "dense":
        arms = {"unfair": (DENSE, UNFAIR)}
    elif workload == "ensemble":
        arms = {"fair": (ENSEMBLE, FAIR), "unfair": (ENSEMBLE, UNFAIR)}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    configs = {}
    for k, (arm, (base, policy)) in enumerate(arms.items()):
        cfg = {**base, "policy": dict(policy), "seed": 2 * seed + k}
        cfg["pairs_per_point"] = max(1000, round(base["pairs_per_point"] * scale))
        configs[arm] = cfg
    return configs


def cli_jobs(workload: str) -> "dict[str, int]":
    """``--jobs`` per CLI stage; a stage not named runs at the CLI default.

    quickstart runs at the default.  dense simulates with one job per core
    but analyzes with one: its pure-Python matcher holds the GIL, so a
    second thread only adds GIL hand-offs between cores, and on a shared
    host their cost varied so much that analyze_s spread by 0.31 of its
    median over ten seeds.
    """
    if workload == "dense":
        return {"simulate": len(os.sched_getaffinity(0)), "analyze": 1}
    return {}


def run_cli_iteration(
    config_paths: dict[str, Path], iter_dir: Path, jobs: "dict[str, int] | None" = None
) -> dict:
    """simulate -> analyze -> report per arm through ``fairsample.cli.main``.

    Returns the stage times and every exit code.  An exception escaping
    ``main`` is recorded as that call's outcome, never swallowed.
    """
    from fairsample import cli

    jobs = jobs or {}
    sim_jobs = ["--jobs", str(jobs["simulate"])] if "simulate" in jobs else []
    ana_jobs = ["--jobs", str(jobs["analyze"])] if "analyze" in jobs else []
    times = {"simulate": 0.0, "analyze": 0.0, "report": 0.0}
    exits: dict[str, dict[str, object]] = {}
    sink = io.StringIO()
    cpu0 = time.process_time()
    start = time.perf_counter()
    for arm, cfg_path in config_paths.items():
        out = iter_dir / arm
        calls = (
            ("simulate", ["simulate", "--config", str(cfg_path), "--output-dir", str(out)] + sim_jobs),
            ("analyze", ["analyze", "--manifest", str(out / "manifest.json")] + ana_jobs),
            ("report", ["report", "--dir", str(out)]),
        )
        exits[arm] = {}
        for stage, argv in calls:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = cli.main(argv)
            except Exception as exc:  # recorded and failed by the gate
                rc = f"{type(exc).__name__}: {exc}"
            times[stage] += time.perf_counter() - t0
            exits[arm][stage] = rc
            if rc != 0:
                break
        sink.seek(0)
        sink.truncate()
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "cpu_s": time.process_time() - cpu0,
        "simulate_s": times["simulate"],
        "analyze_s": times["analyze"],
        "exits": exits,
    }


def run_ensemble_iteration(configs: dict, rep: int) -> dict:
    """One repetition: a fair and an unfair scan, block mode, in memory.

    ``configs`` maps arm to a parsed RunConfig.  simulate_s is the time in
    simulate_block; analyze_s the time in estimate_block and the fit.
    """
    from fairsample import detection, estimator, fits
    from fairsample.estimator import ScanPoint, ScanResult

    skip = (estimator.ZeroSingles, estimator.AllZeroRatios, estimator.NoCoincidences)
    simulate_s = analyze_s = 0.0
    scans = {}
    cpu0 = time.process_time()
    start = time.perf_counter()
    for arm, cfg in configs.items():
        points = []
        for i in range(cfg.n_points):
            s = cfg.settings_for_point(i)
            t0 = time.perf_counter()
            counts = detection.simulate_block(
                cfg.source, cfg.efficiencies, cfg.policy, s, cfg.pairs_per_point,
                (cfg.seed, rep, i),
            )
            t1 = time.perf_counter()
            try:
                est = estimator.estimate_block(counts)
            except skip:
                est = None
            analyze_s += time.perf_counter() - t1
            simulate_s += t1 - t0
            points.append(ScanPoint(alpha=s.alpha, beta=s.beta, counts=counts, est=est))
        t0 = time.perf_counter()
        try:
            report = fits.nosignalling_stats(ScanResult(points=tuple(points)), cfg.varied)
        except Exception as exc:  # recorded and failed by the gate
            report = f"{type(exc).__name__}: {exc}"
        analyze_s += time.perf_counter() - t0
        scans[arm] = (points, report)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "cpu_s": time.process_time() - cpu0,
        "simulate_s": simulate_s,
        "analyze_s": analyze_s,
        "scans": {arm: summarize_scan(*scan) for arm, scan in scans.items()},
    }


def summarize_scan(points, report) -> dict:
    """What the gate needs from one in-memory scan, taken after timing."""
    from fairsample.fits import FitModel

    singles = {ch: sum(getattr(p.counts, ch) for p in points) for ch in CHANNELS}
    summary = {
        "n_points": len(points),
        "skipped": sum(1 for p in points if p.est is None),
        "pairs": sum(p.counts.n_pairs_emitted for p in points),
        "singles": singles,
        "coincidences": sum(p.counts.total_coincidences for p in points),
        "error": report if isinstance(report, str) else None,
    }
    if not isinstance(report, str):
        cosine = report.marginals["b_plus"].fits[FitModel.COSINE]
        summary["z"] = (
            cosine.amplitude / cosine.amplitude_sigma
            if cosine.amplitude_sigma > 0 else math.nan
        )
        summary["p"] = cosine.p_value
        summary["consistent"] = report.consistent
    return summary
