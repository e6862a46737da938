#!/usr/bin/env python3
"""Fair-vs-biased sampling demonstration, end to end.

Simulates two otherwise identical runs of a 21-point Alice scan on a
singlet source — one with fair (outcome-independent) detection, one with
the setting-dependent Malus-law bias — writes time tags, manifests and
analysis tables for both, and prints the resulting no-signalling verdicts
side by side.

The point of the exercise: raw coincidence rates look perfectly healthy in
both runs; only the singles-normalized distant marginals, scanned against
the local setting, separate the two.

Usage:
    python scripts/run_demo.py --output-dir demo_output
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from fairsample import cli
from fairsample.config import config_from_dict
from fairsample.fits import FitModel
from fairsample.pipeline import analyze_run, simulate_run


def base_config(seed: int, pairs: int, points: int) -> dict:
    return {
        "schema_version": 1,
        "source": {"p": 1.0},
        "efficiencies": {
            "a_plus": 0.35,
            "a_minus": 0.35,
            "b_plus": 0.35,
            "b_minus": 0.35,
        },
        "policy": {"kind": "fair", "d": 0.0},
        "scan": {
            "varied": "alice",
            "angles_deg": [float(a) for a in np.linspace(0.0, 180.0, points)],
            "fixed_angle_deg": 0.0,
        },
        "pairs_per_point": pairs,
        "pair_rate_hz": 5000.0,
        "tick_resolution_ps": 1000,
        "jitter_sd_ticks": 50.0,
        "coincidence_window_ticks": 250,
        "dark_rate_hz": 100.0,
        "seed": seed,
    }


def run_arm(name: str, doc: dict, out_dir: Path, jobs: "int | None") -> dict:
    cfg = config_from_dict(doc)
    arm_dir = out_dir / name
    t0 = time.monotonic()
    manifest = simulate_run(cfg, arm_dir, jobs=jobs)
    result = analyze_run(manifest, jobs=jobs)
    elapsed = time.monotonic() - t0
    return {"dir": arm_dir, "elapsed": elapsed, "result": result}


def describe(name: str, arm: dict) -> None:
    result = arm["result"]
    report = result.nosignalling
    print(f"--- {name} run ({arm['dir']}) [{arm['elapsed']:.1f}s]")
    if report is None:
        print("    no verdict:", result.fit_note)
        return
    verdict = "consistent" if report.consistent else "REJECTED"
    print(f"    no-signalling verdict on distant marginals: {verdict}")
    fit = report.marginals["b_plus"].fits[FitModel.COSINE]
    amp = fit.amplitude
    sig = fit.amplitude_sigma
    z = amp / sig if sig else float("nan")
    print(
        f"    b_plus: cosine-vs-constant p = {fit.p_value:.3g}, "
        f"modulation amplitude = {amp:.5f} ± {sig:.5f} ({z:.1f}σ)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output-dir", default="demo_output", help="where to put both runs")
    parser.add_argument("--pairs", type=int, default=200_000, help="pairs per scan point")
    parser.add_argument("--points", type=int, default=21, help="scan points over 0..180 deg")
    parser.add_argument("--bias", type=float, default=0.5, help="modulation depth d of the biased arm")
    parser.add_argument("--seed", type=int, default=20260815)
    parser.add_argument("--jobs", type=cli._jobs, default=None, help=cli._JOBS_HELP)
    args = parser.parse_args(argv)

    out_dir = Path(args.output_dir)
    fair_doc = base_config(args.seed, args.pairs, args.points)
    unfair_doc = base_config(args.seed + 1, args.pairs, args.points)
    unfair_doc["policy"] = {"kind": "unfair_malus", "d": args.bias}

    print(f"simulating {args.points} points x {args.pairs} pairs per arm ...")
    fair = run_arm("fair", fair_doc, out_dir, args.jobs)
    unfair = run_arm("unfair", unfair_doc, out_dir, args.jobs)

    print()
    describe("fair", fair)
    describe(f"biased (d={args.bias:g})", unfair)
    print()
    reports = [arm["result"].files["report"] for arm in (fair, unfair)]
    print("full reports: ", reports[0], "and", reports[1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
