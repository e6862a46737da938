"""End-to-end orchestration: simulate scans to disk, analyze them back.

A *run* is one angle scan: per scan point, two TTG1 files (one per
station) plus a JSON manifest that records every parameter, the RNG
algorithm and seeding rule, and the file names.  The manifest is written
last, as the commit point: a directory with a manifest is a complete run.

Analysis is strictly file-based — it reads the manifest and the TTG1
files, never in-memory simulation state — so third-party streams can be
analyzed by writing a manifest by hand.  Per-point work is independent
and runs in a thread pool; outputs are ordered by point index regardless
of scheduling.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coincidence import CoincidenceWindow, count_coincidences
from .config import RunConfig, config_from_dict, config_to_dict
from .detection import SAMPLER_NAME, SAMPLER_VERSION, simulate_pair_detections
from .estimator import (
    AllZeroRatios,
    EstimateSet,
    NoCoincidences,
    ScanPoint,
    ScanResult,
    ZeroSingles,
    correlation_standard,
    counting_uncertainties,
    estimate_block,
    evenodd_sums_standard,
)
from .fits import (
    FitModel,
    InsufficientPoints,
    NoSignallingReport,
    nosignalling_stats,
)
from .quantum import SettingsPair, SourceState, Station, chsh_value, correlation_qt
from .timetags import generate_streams, read_ttg, write_ttg

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA_VERSION = 1

_ROLE_DETECTIONS = 0
_ROLE_STREAMS = 1

CANONICAL_CHSH_DEG = (0.0, 45.0, 22.5, -22.5)


@dataclass(frozen=True)
class AnalysisResult:
    """Everything cmd_analyze produces, in memory."""

    scan: ScanResult
    nosignalling: "NoSignallingReport | None"
    fit_note: "str | None"
    skipped: tuple[tuple[int, str], ...]
    files: dict[str, Path]


def _point_seed(seed: int, index: int, role: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((seed, index, role))


def _simulate_point(cfg: RunConfig, index: int, out_dir: Path) -> dict:
    s = cfg.settings_for_point(index)
    det = simulate_pair_detections(
        cfg.source,
        cfg.efficiencies,
        cfg.policy,
        s,
        cfg.pairs_per_point,
        _point_seed(cfg.seed, index, _ROLE_DETECTIONS),
    )
    stream_a, stream_b = generate_streams(
        det,
        pair_rate_hz=cfg.pair_rate_hz,
        tick_resolution_ps=cfg.tick_resolution_ps,
        jitter_sd_ticks=cfg.jitter_sd_ticks,
        seed=_point_seed(cfg.seed, index, _ROLE_STREAMS),
        dark_rate_hz=cfg.dark_rate_hz,
    )
    del det  # not needed by the writes; lowers the point's peak memory
    alice_name = f"point_{index:03d}_alice.ttg"
    bob_name = f"point_{index:03d}_bob.ttg"
    write_ttg(stream_a, out_dir / alice_name)
    write_ttg(stream_b, out_dir / bob_name)
    return {
        "index": index,
        "alpha_deg": math.degrees(s.alpha),
        "beta_deg": math.degrees(s.beta),
        "alice_file": alice_name,
        "bob_file": bob_name,
        "n_pairs": cfg.pairs_per_point,
    }


def simulate_run(cfg: RunConfig, output_dir, jobs: "int | None" = None) -> Path:
    """Simulate every scan point to TTG1 files; returns the manifest path.

    The manifest is written only after every point file exists.
    """
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = jobs if jobs and jobs > 0 else 1
    if workers == 1:
        points = [_simulate_point(cfg, i, out_dir) for i in range(cfg.n_points)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            points = list(
                pool.map(lambda i: _simulate_point(cfg, i, out_dir), range(cfg.n_points))
            )
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": "fairsample-run",
        "config": config_to_dict(cfg),
        "rng": {
            "algorithm": "PCG64",
            "sampler": {"name": SAMPLER_NAME, "version": SAMPLER_VERSION},
            "seeding": "SeedSequence((seed, point_index, role)); "
                       "role 0 = observed-pair positions (geometric skips) and "
                       "their categories, role 1 = emission times (Gamma "
                       "increments), jitter and dark counts",
        },
        "format": {"name": "TTG1", "version": 1},
        "points": points,
    }
    manifest_path = out_dir / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return manifest_path


@dataclass(frozen=True)
class ManifestPoint:
    """One validated scan point of a manifest; angles in radians."""

    index: int
    alpha: float
    beta: float
    alice_file: Path
    bob_file: Path


def _parse_point(i: int, doc, base: Path) -> ManifestPoint:
    """Validate one manifest point; file names must stay inside ``base``."""
    where = f"points[{i}]"
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: must be a JSON object")
    for key in ("index", "alpha_deg", "beta_deg", "alice_file", "bob_file"):
        if key not in doc:
            raise ValueError(f"{where}.{key}: missing required field")
    index = doc["index"]
    if isinstance(index, bool) or not isinstance(index, int):
        raise ValueError(f"{where}.index: must be an integer, got {index!r}")
    angles = []
    for key in ("alpha_deg", "beta_deg"):
        value = doc[key]
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not math.isfinite(value)
        ):
            raise ValueError(f"{where}.{key}: must be a finite number, got {value!r}")
        angles.append(math.radians(value))
    root = base.resolve()
    files = []
    for key in ("alice_file", "bob_file"):
        name = doc[key]
        target = (base / name).resolve() if isinstance(name, str) else None
        if target is None or root not in target.parents:
            raise ValueError(
                f"{where}.{key}: must name a file inside the run directory, "
                f"got {name!r}"
            )
        files.append(target)
    return ManifestPoint(index, angles[0], angles[1], files[0], files[1])


def load_manifest(
    manifest_path,
) -> tuple[dict, RunConfig, Path, list[ManifestPoint]]:
    """Read and validate a manifest.

    Returns (document, typed config, base directory, validated points).
    A malformed document or point raises ValueError.
    """
    path = Path(manifest_path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or doc.get("kind") != "fairsample-run":
        raise ValueError(f"{path}: not a run manifest")
    if doc.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported manifest schema version")
    if not isinstance(doc.get("points"), list):
        raise ValueError(f"{path}: manifest has no point list")
    cfg = config_from_dict(doc.get("config", {}))
    base = path.parent
    try:
        points = [_parse_point(i, pd, base) for i, pd in enumerate(doc["points"])]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return doc, cfg, base, points


def _analyze_point(
    point: ManifestPoint, window: CoincidenceWindow
) -> tuple[int, ScanPoint, "str | None"]:
    stream_a = read_ttg(point.alice_file)
    stream_b = read_ttg(point.bob_file)
    index, alpha, beta = point.index, point.alpha, point.beta
    counts = count_coincidences(stream_a, stream_b, window, alpha=alpha, beta=beta)
    est: "EstimateSet | None"
    note: "str | None" = None
    try:
        est = estimate_block(counts)
    except (ZeroSingles, AllZeroRatios, NoCoincidences) as exc:
        est = None
        note = f"{type(exc).__name__}: {exc}"
    return index, ScanPoint(alpha=alpha, beta=beta, counts=counts, est=est), note


def _fmt(value: float) -> str:
    if isinstance(value, float) and not math.isfinite(value):
        return "nan"
    return repr(float(value))


def _write_counts_csv(path: Path, scan: ScanResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "point", "alpha_deg", "beta_deg",
                "n_pp", "n_pm", "n_mp", "n_mm",
                "s_a_plus", "s_a_minus", "s_b_plus", "s_b_minus",
            ]
        )
        for i, pt in enumerate(scan.points):
            c = pt.counts
            writer.writerow(
                [
                    i, _fmt(math.degrees(pt.alpha)), _fmt(math.degrees(pt.beta)),
                    c.n_pp, c.n_pm, c.n_mp, c.n_mm,
                    c.s_a_plus, c.s_a_minus, c.s_b_plus, c.s_b_minus,
                ]
            )


def _write_correlation_csv(path: Path, scan: ScanResult, cfg: RunConfig) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "point", "alpha_deg", "beta_deg",
                "corr_standard", "sigma_standard",
                "corr_singles", "sigma_singles", "corr_model",
            ]
        )
        for i, pt in enumerate(scan.points):
            model = correlation_qt(cfg.source, SettingsPair(pt.alpha, pt.beta))
            if pt.counts.total_coincidences > 0:
                sigma = counting_uncertainties(pt.counts)
                row = [
                    _fmt(correlation_standard(pt.counts)),
                    _fmt(sigma.correlation_standard),
                ]
            else:
                row = ["nan", "nan"]
            if pt.est is not None:
                row += [
                    _fmt(pt.est.correlation_singles),
                    _fmt(pt.est.sigma.correlation_singles),
                ]
            else:
                row += ["nan", "nan"]
            writer.writerow(
                [i, _fmt(math.degrees(pt.alpha)), _fmt(math.degrees(pt.beta))]
                + row
                + [_fmt(model)]
            )


def _write_evenodd_csv(path: Path, scan: ScanResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["point", "alpha_deg", "beta_deg"]
        for name in ("a_plus", "a_minus", "b_plus", "b_minus"):
            header += [name, f"sigma_{name}"]
        writer.writerow(header)
        for i, pt in enumerate(scan.points):
            row = [i, _fmt(math.degrees(pt.alpha)), _fmt(math.degrees(pt.beta))]
            if pt.counts.total_coincidences > 0:
                sums = evenodd_sums_standard(pt.counts).as_tuple()
                sigmas = counting_uncertainties(pt.counts).marginals_standard
                for value, sigma in zip(sums, sigmas):
                    row += [_fmt(value), _fmt(sigma)]
            else:
                row += ["nan"] * 8
            writer.writerow(row)


def _write_marginals_csv(path: Path, scan: ScanResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["point", "alpha_deg", "beta_deg"]
        for name in ("a_plus", "a_minus", "b_plus", "b_minus"):
            header += [name, f"sigma_{name}"]
        header.append("low_statistics")
        writer.writerow(header)
        for i, pt in enumerate(scan.points):
            row = [i, _fmt(math.degrees(pt.alpha)), _fmt(math.degrees(pt.beta))]
            if pt.est is not None:
                for value, sigma in zip(
                    pt.est.marginals.as_tuple(), pt.est.sigma.marginals
                ):
                    row += [_fmt(value), _fmt(sigma)]
                row.append(int(pt.est.sigma.low_statistics))
            else:
                row += ["nan"] * 8 + [1]
            writer.writerow(row)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _fit_to_dict(fit) -> dict:
    return {
        "model": fit.model.value,
        "params": [_json_safe(v) for v in fit.params],
        "cov": [[_json_safe(v) for v in row] for row in fit.cov],
        "chi2": _json_safe(fit.chi2),
        "dof": fit.dof,
        "f_stat": _json_safe(fit.f_stat),
        "p_value": _json_safe(fit.p_value),
        "amplitude": _json_safe(fit.amplitude),
        "amplitude_sigma": _json_safe(fit.amplitude_sigma),
    }


def _report_to_dict(report: NoSignallingReport) -> dict:
    return {
        "varied": "alice" if report.varied == Station.ALICE else "bob",
        "distant": "alice" if report.distant == Station.ALICE else "bob",
        "alpha_level": report.alpha_level,
        "consistent": report.consistent,
        "n_points_used": report.n_points_used,
        "n_points_skipped": report.n_points_skipped,
        "marginals": {
            name: {
                "n_points": mf.n_points,
                "verdict": mf.verdict,
                "fits": {
                    model.value: _fit_to_dict(mf.fits[model]) for model in FitModel
                },
            }
            for name, mf in report.marginals.items()
        },
    }


def analyze_run(
    manifest_path,
    window_ticks: "int | None" = None,
    alpha_level: float = 0.01,
    output_dir=None,
    jobs: "int | None" = None,
) -> AnalysisResult:
    """Run matching + estimation + fits over a simulated run on disk.

    Writes counts.csv, correlation.csv, evenodd_standard.csv,
    marginals_singles.csv and nosignalling.json next to the manifest (or
    into ``output_dir``).  When fewer than 5 points support fits, the fit
    step is skipped with a note instead of failing the whole analysis.
    """
    _, cfg, base, points = load_manifest(manifest_path)
    out_dir = Path(output_dir) if output_dir is not None else base
    out_dir.mkdir(parents=True, exist_ok=True)
    window = CoincidenceWindow(
        window_ticks if window_ticks is not None else cfg.coincidence_window_ticks
    )

    workers = jobs if jobs and jobs > 0 else 1
    if workers == 1:
        results = [_analyze_point(pt, window) for pt in points]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda pt: _analyze_point(pt, window), points))
    results.sort(key=lambda r: r[0])
    scan = ScanResult(points=tuple(r[1] for r in results))
    skipped = tuple((r[0], r[2]) for r in results if r[2] is not None)

    report: "NoSignallingReport | None" = None
    fit_note: "str | None" = None
    try:
        report = nosignalling_stats(scan, cfg.varied, alpha_level=alpha_level)
    except InsufficientPoints as exc:
        fit_note = f"fits skipped: insufficient points ({exc})"

    files = {
        "counts": out_dir / "counts.csv",
        "correlation": out_dir / "correlation.csv",
        "evenodd_standard": out_dir / "evenodd_standard.csv",
        "marginals_singles": out_dir / "marginals_singles.csv",
        "nosignalling": out_dir / "nosignalling.json",
    }
    _write_counts_csv(files["counts"], scan)
    _write_correlation_csv(files["correlation"], scan, cfg)
    _write_evenodd_csv(files["evenodd_standard"], scan)
    _write_marginals_csv(files["marginals_singles"], scan)

    low_stat_points = [
        i
        for i, pt in enumerate(scan.points)
        if pt.est is not None and pt.est.sigma.low_statistics
    ]
    ns_doc = {
        "schema_version": 1,
        "kind": "fairsample-nosignalling",
        "run": {
            "p": cfg.source.p,
            "policy": cfg.policy.kind.value,
            "d": cfg.policy.d,
            "varied": "alice" if cfg.varied == Station.ALICE else "bob",
            "window_ticks": window.width_ticks,
            "n_points": cfg.n_points,
        },
        "alpha_level": alpha_level,
        "report": None if report is None else _report_to_dict(report),
        "fit_note": fit_note,
        "skipped_points": [{"index": i, "reason": r} for i, r in skipped],
        "low_statistics_points": low_stat_points,
    }
    files["nosignalling"].write_text(
        json.dumps(ns_doc, indent=2), encoding="utf-8"
    )
    return AnalysisResult(
        scan=scan, nosignalling=report, fit_note=fit_note, skipped=skipped,
        files=files,
    )


def write_report(analysis_dir) -> Path:
    """Render a human-readable summary of an analyzed run to report.md."""
    base = Path(analysis_dir)
    ns_path = base / "nosignalling.json"
    corr_path = base / "correlation.csv"
    if not ns_path.exists() or not corr_path.exists():
        raise FileNotFoundError(f"no analysis artifacts found in {base}")
    ns = json.loads(ns_path.read_text(encoding="utf-8"))

    deviations = []
    with open(corr_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            try:
                measured = float(row["corr_standard"])
                model = float(row["corr_model"])
            except ValueError:
                continue
            if math.isfinite(measured) and math.isfinite(model):
                deviations.append(measured - model)

    run = ns["run"]
    state = SourceState(run["p"])
    a1, a2, b1, b2 = (math.radians(v) for v in CANONICAL_CHSH_DEG)
    chsh = chsh_value(state, a1, a2, b1, b2)

    lines = [
        "# Run summary",
        "",
        f"- source p = {run['p']}, policy = {run['policy']} (d = {run['d']})",
        f"- varied station: {run['varied']}; scan points: {run['n_points']}; "
        f"coincidence window: {run['window_ticks']} ticks",
        "",
        "## Correlation",
        "",
    ]
    if deviations:
        rms = math.sqrt(sum(d * d for d in deviations) / len(deviations))
        worst = max(abs(d) for d in deviations)
        lines += [
            f"- RMS deviation of standard correlation from the model curve: "
            f"{rms:.5f}",
            f"- max |deviation|: {worst:.5f}",
        ]
    else:
        lines.append("- no correlation points available")
    lines += [
        "",
        f"- model CHSH at canonical settings "
        f"({', '.join(f'{v:g}°' for v in CANONICAL_CHSH_DEG)}): {chsh:.4f} "
        "(settings not covered by a single-scan run; value is the model "
        "prediction for this source)",
        "",
        "## No-signalling test (singles-normalized marginals)",
        "",
    ]
    report = ns.get("report")
    if report is None:
        lines.append(f"- {ns.get('fit_note') or 'fits unavailable'}")
    else:
        for name, mf in report["marginals"].items():
            cos = mf["fits"]["cosine"]
            amp = cos["amplitude"]
            amp_s = cos["amplitude_sigma"]
            p_val = cos["p_value"]
            desc = (
                f"cosine amplitude {amp:.5f} ± {amp_s:.5f}, p = {p_val:.3g}"
                if amp is not None and amp_s is not None and p_val is not None
                else "cosine fit unavailable"
            )
            verdict = f" → {mf['verdict']}" if mf["verdict"] else ""
            lines.append(f"- {name}: {desc}{verdict}")
        lines.append("")
        if report["consistent"]:
            lines.append(
                f"**Verdict: fair sampling consistent** — distant-station "
                f"marginals show no setting dependence at "
                f"p < {report['alpha_level']:g}."
            )
        else:
            lines.append(
                f"**Verdict: fair sampling REJECTED at "
                f"p<{report['alpha_level']:g}** — distant-station marginals "
                "depend on the remote setting."
            )
    low = ns.get("low_statistics_points") or []
    skipped = ns.get("skipped_points") or []
    if low or skipped:
        lines += ["", "## Warnings", ""]
        if low:
            lines.append(f"- low-statistics points (some count < 10): {low}")
        for item in skipped:
            lines.append(
                f"- point {item['index']} skipped in fits: {item['reason']}"
            )
    out = base / "report.md"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out
