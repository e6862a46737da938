"""Correctness gate and workload-property counters.

The gate uses exact identities where the program has them (singles equal
the TTG1 record counts, the fast matcher equals its oracle, the verdict
follows from the p-value) and otherwise only statistical bounds that a
correct program meets at any seed with a margin of at least 5 sigma.
The acceptance criteria's own statistical checks stay with the tests.

Each check returns a list of failures; a failure names the scan point it
concerns, or ``None`` when it concerns the whole scan.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np

# Singlet source (p = 1): each outcome has probability 1/2 at any angle.
P_OUTCOME = 0.5
# Per-channel singles totals are binomial plus Poisson dark counts; a correct
# program lands within 6 sigma of the model mean with probability 1 - 2e-9.
SINGLES_SIGMAS = 6.0
# Unfair ensemble scans gave b_plus cosine z = 8.4 +/- 0.7 over 12 reps
# (6.9 minimum).  A threshold of 3 keeps a margin above 5 sigma; a sampler
# that ignores the bias gives z > 3 in about 1% of scans.
ENSEMBLE_MIN_Z = 3.0
# Fair-arm scans with p below this are counted, not failed.
FAIR_ALPHA = 0.01

CHANNELS = ("s_a_plus", "s_a_minus", "s_b_plus", "s_b_minus")
_TTG_HEADER = struct.Struct("<4sBBHQQ")


def ttg_record_count(path: Path) -> int:
    """Record count from a TTG1 header, read independently of the package."""
    with open(path, "rb") as fh:
        magic, *_rest, count = _TTG_HEADER.unpack(fh.read(_TTG_HEADER.size))
    if magic != b"TTG1":
        raise ValueError(f"{path}: not a TTG1 file")
    return count


def singles_expectation(cfg: dict, n_points: int) -> dict[str, tuple[float, float]]:
    """Mean and variance of each channel's singles total over a scan."""
    n = cfg["pairs_per_point"]
    eff = cfg["efficiencies"]
    d = cfg["policy"]["d"] if cfg["policy"]["kind"] == "unfair_malus" else 0.0
    dark = cfg.get("dark_rate_hz", 0.0) * n / cfg["pair_rate_hz"]
    out = {}
    for ch in CHANNELS:
        eta = eff[ch[2:]]
        # The Malus policy scales the plus channels by 1 - d/2 on average.
        q = P_OUTCOME * eta * ((1.0 - d / 2.0) if ch.endswith("plus") else 1.0)
        out[ch] = (n_points * (n * q + dark), n_points * (n * q * (1.0 - q) + dark))
    return out


def check_singles(singles: dict, cfg: dict, n_points: int) -> list[str]:
    failures = []
    for ch, (mean, var) in singles_expectation(cfg, n_points).items():
        z = (singles[ch] - mean) / math.sqrt(var)
        if abs(z) > SINGLES_SIGMAS:
            failures.append(
                f"{ch} total {singles[ch]} is {z:+.1f} sigma from the model mean {mean:.0f}"
            )
    return failures


def _verdict_failures(ns: dict, report_md: str) -> list[str]:
    """The verdicts must follow from the cosine p-values, everywhere shown."""
    report = ns["report"]
    alpha = report["alpha_level"]
    prefix = "b" if report["distant"] == "bob" else "a"
    failures = []
    all_consistent = True
    for name, mf in report["marginals"].items():
        if not name.startswith(prefix):
            continue
        p = mf["fits"]["cosine"]["p_value"]
        expected = "consistent" if p is not None and p >= alpha else "violated"
        all_consistent = all_consistent and expected == "consistent"
        if mf["verdict"] != expected:
            failures.append(f"{name}: verdict {mf['verdict']!r} but p = {p}")
    if report["consistent"] != all_consistent:
        failures.append(f"report.consistent is {report['consistent']} against the p-values")
    shown = "fair sampling consistent" if report["consistent"] else "fair sampling REJECTED"
    if shown not in report_md:
        failures.append(f"report.md does not state {shown!r}")
    return failures


def check_cli_arm(run_dir: Path, cfg: dict, exits: dict) -> tuple[list, dict]:
    """Gate one simulate -> analyze -> report run; returns (failures, info)."""
    for stage in ("simulate", "analyze", "report"):
        rc = exits.get(stage)
        if rc != 0:
            return [(None, f"{stage} ended with {rc!r}")], {}
    failures: list = []
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    with open(run_dir / "counts.csv", newline="", encoding="utf-8") as fh:
        rows = {int(r["point"]): r for r in csv.DictReader(fh)}
    points = manifest["points"]
    if len(points) != len(cfg["scan"]["angles_deg"]) or len(rows) != len(points):
        failures.append((None, f"{len(points)} points in manifest, {len(rows)} in counts.csv"))
    singles = dict.fromkeys(CHANNELS, 0)
    for p in points:
        idx = int(p["index"])
        row = rows.get(idx)
        if row is None:
            failures.append((idx, "no counts.csv row"))
            continue
        for ch in CHANNELS:
            singles[ch] += int(row[ch])
        for station, name in (("a", p["alice_file"]), ("b", p["bob_file"])):
            events = ttg_record_count(run_dir / name)
            counted = int(row[f"s_{station}_plus"]) + int(row[f"s_{station}_minus"])
            if counted != events:
                failures.append((idx, f"{name}: {events} records but {counted} singles"))
    failures += [(None, msg) for msg in check_singles(singles, cfg, len(points))]

    ns = json.loads((run_dir / "nosignalling.json").read_text(encoding="utf-8"))
    failures += [(s["index"], f"skipped: {s['reason']}") for s in ns["skipped_points"]]
    if ns["report"] is None:
        failures.append((None, f"no fits: {ns['fit_note']}"))
        return failures, {}
    report_md = (run_dir / "report.md").read_text(encoding="utf-8")
    failures += [(None, msg) for msg in _verdict_failures(ns, report_md)]
    cosine = ns["report"]["marginals"]["b_plus"]["fits"]["cosine"]
    info = {
        "b_plus_z": cosine["amplitude"] / cosine["amplitude_sigma"],
        "b_plus_p": cosine["p_value"],
        "consistent": ns["report"]["consistent"],
    }
    return failures, info


def check_ensemble_scan(summary: dict, cfg: dict, arm: str) -> list[str]:
    """Gate one in-memory scan of the ensemble workload."""
    if summary["error"]:
        return [f"fit failed: {summary['error']}"]
    failures = check_singles(summary["singles"], cfg, summary["n_points"])
    if summary["skipped"]:
        failures.append(f"{summary['skipped']} point(s) without estimates")
    if arm == "unfair" and not summary["z"] > ENSEMBLE_MIN_Z:
        failures.append(f"unfair b_plus cosine z = {summary['z']:.2f} <= {ENSEMBLE_MIN_Z}")
    return failures


def _prefix(stream, t_cut):
    n = int(np.searchsorted(stream.t, np.uint64(t_cut), side="right"))
    return replace(
        stream, t=stream.t[:n], sign=stream.sign[:n], setting_index=stream.setting_index[:n]
    )


def check_matcher_prefix(run_dir: Path, index: int, window: int, n_events: int) -> list[str]:
    """Production matcher equals the oracle on a time prefix of one point."""
    from fairsample import coincidence, timetags

    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    point = next(p for p in manifest["points"] if int(p["index"]) == index)
    a = timetags.read_ttg(run_dir / point["alice_file"])
    b = timetags.read_ttg(run_dir / point["bob_file"])
    if len(a) == 0:
        return [f"point {index}: empty Alice stream"]
    t_cut = a.t[min(n_events, len(a)) - 1]
    a, b = _prefix(a, t_cut), _prefix(b, t_cut)
    w = coincidence.CoincidenceWindow(window)
    fast = coincidence.count_coincidences(a, b, w)
    slow = coincidence.count_coincidences_naive(a, b, w)
    fields = ("n_pp", "n_pm", "n_mp", "n_mm") + CHANNELS
    got = tuple(getattr(fast, f) for f in fields)
    want = tuple(getattr(slow, f) for f in fields)
    if got != want:
        return [f"point {index}: matcher {got} but oracle {want} on {len(a)}+{len(b)} events"]
    return []


def observed_frac_block(cfgs: list[dict]) -> float:
    """Share of emitted pairs with at least one detection, at each arm's
    middle scan point, from the block simulator's counts."""
    from fairsample import config, detection

    observed = pairs = 0
    for doc in cfgs:
        cfg = config.config_from_dict(doc)
        counts = detection.simulate_block(
            cfg.source, cfg.efficiencies, cfg.policy,
            cfg.settings_for_point(cfg.n_points // 2), cfg.pairs_per_point,
            (cfg.seed, 1),
        )
        observed += counts.total_singles - counts.total_coincidences
        pairs += cfg.pairs_per_point
    return observed / pairs


def cluster_gt2_frac(run_dir: Path, index: int, window: int) -> tuple[int, int]:
    """(events in clusters of more than 2, all events) at one point.

    Clusters are the runs of the merged A+B timeline that no gap wider
    than the window splits; matching never crosses such a gap.
    """
    from fairsample import timetags

    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    point = next(p for p in manifest["points"] if int(p["index"]) == index)
    t = np.sort(np.concatenate([
        timetags.read_ttg(run_dir / point["alice_file"]).t,
        timetags.read_ttg(run_dir / point["bob_file"]).t,
    ]))
    if t.size == 0:
        return 0, 0
    breaks = np.flatnonzero(np.diff(t) > np.uint64(window)) + 1
    sizes = np.diff(np.concatenate([[0], breaks, [t.size]]))
    return int(sizes[sizes > 2].sum()), int(t.size)
