"""End-to-end orchestration: simulate scans to disk, analyze them back.

A *run* is one angle scan: per scan point, two TTG1 files (one per
station) plus a JSON manifest that records every parameter, the RNG
algorithm and seeding rule, and the file names.  The manifest is written
last, as the commit point: a directory with a manifest is a complete run.
Every artifact is written to a temporary file and renamed into place, so
a write that fails part-way leaves the previous file or none.

Analysis is strictly file-based — it reads the manifest and the TTG1
files, never in-memory simulation state — so third-party streams can be
analyzed by writing a manifest by hand.  Per-point work is independent
and runs in a thread pool; outputs are ordered by point index regardless
of scheduling.
"""

from __future__ import annotations

import csv
import errno
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coincidence import CoincidenceWindow, count_coincidences
from .config import (
    NUMBER,
    ConfigError,
    RunConfig,
    config_from_dict,
    config_to_dict,
    json_field,
)
from .detection import SAMPLER_NAME, SAMPLER_VERSION, simulate_block
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
from .fileio import atomic_write
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
NOSIGNALLING_SCHEMA_VERSION = 2

_ROLE_COUNTS = 0
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


def _map_points(work, items, jobs: "int | None") -> list:
    """``work`` over ``items`` in order, on ``jobs`` pool threads.

    One job runs on a pool thread too.  glibc gives each thread a malloc
    arena, and a pool thread's arena passes to the next stage's pool
    threads with the free memory left in it; the main thread's arena keeps
    it.  A dense analysis run inline left up to 60 MB in the main arena,
    and the next simulation's peak memory rose by as much.  The CLI's heap
    pad keeps freed pages resident and so does not help here: with the pad
    and one job inline, the dense benchmark's peak memory was 227-242 MB
    at seeds 1-3, against 174-188 MB on a pool thread.
    """
    workers = jobs if jobs and jobs > 0 else 1
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, items))


def _simulate_point(cfg: RunConfig, index: int, out_dir: Path) -> dict:
    s = cfg.settings_for_point(index)
    counts = simulate_block(
        cfg.source,
        cfg.efficiencies,
        cfg.policy,
        s,
        cfg.pairs_per_point,
        _point_seed(cfg.seed, index, _ROLE_COUNTS),
    )
    stream_a, stream_b = generate_streams(
        counts,
        pair_rate_hz=cfg.pair_rate_hz,
        tick_resolution_ps=cfg.tick_resolution_ps,
        jitter_sd_ticks=cfg.jitter_sd_ticks,
        seed=_point_seed(cfg.seed, index, _ROLE_STREAMS),
        dark_rate_hz=cfg.dark_rate_hz,
    )
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
    manifest_path = out_dir / MANIFEST_NAME
    # A manifest left by an earlier run would vouch for point files that
    # this run is about to replace.
    manifest_path.unlink(missing_ok=True)
    points = _map_points(
        lambda i: _simulate_point(cfg, i, out_dir), range(cfg.n_points), jobs
    )
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": "fairsample-run",
        "config": config_to_dict(cfg),
        "rng": {
            "algorithm": "PCG64",
            "sampler": {"name": SAMPLER_NAME, "version": SAMPLER_VERSION},
            "seeding": "SeedSequence((seed, point_index, role)); "
                       "role 0 = the block's multinomial category counts, "
                       "role 1 = the Gamma(n + 1) emission horizon, one uniform "
                       "emission time per observed pair, jitter and dark counts",
        },
        "format": {"name": "TTG1", "version": 1},
        "points": points,
    }
    with atomic_write(manifest_path, encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
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
    index = json_field(doc, "index", (int,), where)
    angles = []
    for key in ("alpha_deg", "beta_deg"):
        value = json_field(doc, key, NUMBER, where)
        if not math.isfinite(value):
            raise ValueError(f"{where}.{key}: must be a finite number, got {value!r}")
        angles.append(math.radians(value))
    root = base.resolve()
    files = []
    for key in ("alice_file", "bob_file"):
        name = json_field(doc, key, where=where)
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
    A malformed document, embedded config or point raises ValueError that
    names the manifest path and the JSON path of the fault.
    """
    path = Path(manifest_path)
    base = path.parent
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(doc, dict) or doc.get("kind") != "fairsample-run":
            raise ValueError("not a run manifest")
        version = json_field(doc, "schema_version", (int,))
        if version != MANIFEST_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported manifest schema version {version!r}, "
                f"expected {MANIFEST_SCHEMA_VERSION}"
            )
        if not isinstance(doc.get("points"), list):
            raise ValueError("manifest has no point list")
        config_doc = json_field(doc, "config", (dict,))
        try:
            cfg = config_from_dict(config_doc)
        except ConfigError as exc:
            raise ValueError(f"config.{exc}") from None
        points = [_parse_point(i, pd, base) for i, pd in enumerate(doc["points"])]
        seen = set()
        for i, pt in enumerate(points):
            if pt.index in seen:
                raise ValueError(f"points[{i}].index: duplicate index {pt.index}")
            seen.add(pt.index)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return doc, cfg, base, points


def _analyze_point(
    point: ManifestPoint, window: CoincidenceWindow
) -> tuple[int, ScanPoint, "str | None"]:
    index, alpha, beta = point.index, point.alpha, point.beta
    streams = []
    for key, path, role in (
        ("alice_file", point.alice_file, Station.ALICE),
        ("bob_file", point.bob_file, Station.BOB),
    ):
        try:
            stream = read_ttg(path)
        except ValueError as exc:
            raise ValueError(f"point {index}: {path}: {exc}") from None
        # Swapped files would pass for a run with the stations' roles exchanged.
        if stream.station != role:
            raise ValueError(
                f"point {index}: {key} {path} holds station "
                f"{stream.station.name.lower()}'s events"
            )
        streams.append(stream)
    try:
        counts = count_coincidences(streams[0], streams[1], window)
    except ValueError as exc:
        raise ValueError(f"point {index}: {exc}") from None
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


_CHANNEL_COLUMNS = [
    h for name in ("a_plus", "a_minus", "b_plus", "b_minus")
    for h in (name, f"sigma_{name}")
]


def _write_table(path: Path, header: list, rows: list, cells) -> None:
    """Write one CSV: per row the point's key columns, then ``cells``.

    ``rows`` holds (manifest index, scan point, its uncertainties);
    ``cells(point, uncertainties)`` gives the remaining columns.
    """
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point", "alpha_deg", "beta_deg"] + header)
        for index, pt, sigma in rows:
            key = [index, _fmt(math.degrees(pt.alpha)), _fmt(math.degrees(pt.beta))]
            writer.writerow(key + cells(pt, sigma))


def _paired(values, sigmas) -> list:
    return [_fmt(v) for pair in zip(values, sigmas) for v in pair]


def _counts_cells(pt: ScanPoint, sigma) -> list:
    c = pt.counts
    return [
        c.n_pp, c.n_pm, c.n_mp, c.n_mm,
        c.s_a_plus, c.s_a_minus, c.s_b_plus, c.s_b_minus,
    ]


def _correlation_cells(pt: ScanPoint, sigma, cfg: RunConfig) -> list:
    c, est = pt.counts, pt.est
    return [
        _fmt(correlation_standard(c)) if c.total_coincidences else "nan",
        _fmt(sigma.correlation_standard),
        _fmt(est.correlation_singles) if est is not None else "nan",
        _fmt(sigma.correlation_singles),
        _fmt(correlation_qt(cfg.source, SettingsPair(pt.alpha, pt.beta))),
    ]


def _evenodd_cells(pt: ScanPoint, sigma) -> list:
    if not pt.counts.total_coincidences:
        return ["nan"] * 8
    sums = evenodd_sums_standard(pt.counts).as_tuple()
    return _paired(sums, sigma.marginals_standard)


def _marginals_cells(pt: ScanPoint, sigma) -> list:
    if pt.est is None:
        return ["nan"] * 8 + [1]
    return _paired(pt.est.marginals.as_tuple(), sigma.marginals) + [
        int(sigma.low_statistics)
    ]


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

    results = _map_points(lambda pt: _analyze_point(pt, window), points, jobs)
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
    # One set of uncertainties per point: the estimate's own, or one call
    # for a point whose singles normalization is undefined.
    rows = [
        (index, pt, pt.est.sigma if pt.est else counting_uncertainties(pt.counts))
        for index, pt, _ in results
    ]
    _write_table(
        files["counts"],
        ["n_pp", "n_pm", "n_mp", "n_mm",
         "s_a_plus", "s_a_minus", "s_b_plus", "s_b_minus"],
        rows, _counts_cells,
    )
    _write_table(
        files["correlation"],
        ["corr_standard", "sigma_standard",
         "corr_singles", "sigma_singles", "corr_model"],
        rows, lambda pt, sigma: _correlation_cells(pt, sigma, cfg),
    )
    _write_table(files["evenodd_standard"], _CHANNEL_COLUMNS, rows, _evenodd_cells)
    _write_table(
        files["marginals_singles"], _CHANNEL_COLUMNS + ["low_statistics"],
        rows, _marginals_cells,
    )

    low_stat_points = [
        index
        for index, pt, sigma in rows
        if pt.est is not None and sigma.low_statistics
    ]
    ns_doc = {
        "schema_version": NOSIGNALLING_SCHEMA_VERSION,
        "kind": "fairsample-nosignalling",
        "run": {
            "p": cfg.source.p,
            "policy": cfg.policy.kind.value,
            "d": cfg.policy.d,
            "varied": "alice" if cfg.varied == Station.ALICE else "bob",
            "window_ticks": window.width_ticks,
            "n_points": len(points),
        },
        "alpha_level": alpha_level,
        "report": None if report is None else _report_to_dict(report),
        "fit_note": fit_note,
        "skipped_points": [{"index": i, "reason": r} for i, r in skipped],
        "low_statistics_points": low_stat_points,
    }
    with atomic_write(files["nosignalling"], encoding="utf-8") as fh:
        json.dump(ns_doc, fh, indent=2)
    return AnalysisResult(
        scan=scan, nosignalling=report, fit_note=fit_note, skipped=skipped,
        files=files,
    )


_COSINE_FIELDS = ("amplitude", "amplitude_sigma", "p_value")


def _check_nosignalling(ns) -> None:
    """Check the kind, version and every field of ``ns`` that write_report reads."""
    if not isinstance(ns, dict) or ns.get("kind") != "fairsample-nosignalling":
        raise ValueError("not a no-signalling document")
    version = json_field(ns, "schema_version", (int,))
    if version != NOSIGNALLING_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema version {version!r}, "
            f"expected {NOSIGNALLING_SCHEMA_VERSION}"
        )
    run = json_field(ns, "run", (dict,))
    for key, kinds in (
        ("p", NUMBER), ("policy", (str,)), ("d", NUMBER),
        ("varied", (str,)), ("n_points", (int,)), ("window_ticks", (int,)),
    ):
        json_field(run, key, kinds, "run")
    # write_report builds the model from run.p; NaN fails the comparison.
    if not 0.0 <= run["p"] <= 1.0:
        raise ValueError(f"run.p: must be a number in [0, 1], got {run['p']!r}")
    json_field(ns, "fit_note", (str, type(None)))
    json_field(ns, "low_statistics_points", (list,))
    for i, item in enumerate(json_field(ns, "skipped_points", (list,))):
        where = f"skipped_points[{i}]"
        json_field(item, "index", (int,), where)
        json_field(item, "reason", (str,), where)
    report = json_field(ns, "report", (dict, type(None)))
    if report is None:
        return
    json_field(report, "consistent", (bool,), "report")
    json_field(report, "alpha_level", NUMBER, "report")
    for name, mf in json_field(report, "marginals", (dict,), "report").items():
        where = f"report.marginals.{name}"
        json_field(mf, "verdict", (str, type(None)), where)
        fits = json_field(mf, "fits", (dict,), where)
        cosine = json_field(fits, "cosine", (dict,), f"{where}.fits")
        for key in _COSINE_FIELDS:
            json_field(cosine, key, (int, float, type(None)), f"{where}.fits.cosine")


def write_report(analysis_dir) -> Path:
    """Render a human-readable summary of an analyzed run to report.md."""
    base = Path(analysis_dir)
    ns_path = base / "nosignalling.json"
    corr_path = base / "correlation.csv"
    for path in (ns_path, corr_path):
        if not path.exists():
            raise FileNotFoundError(
                errno.ENOENT, f"no analysis artifacts found in {base}", str(path)
            )
    try:
        ns = json.loads(ns_path.read_text(encoding="utf-8"))
        _check_nosignalling(ns)
    except ValueError as exc:
        raise ValueError(f"{ns_path}: {exc}") from None

    deviations = []
    with open(corr_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if not {"corr_standard", "corr_model"} <= set(reader.fieldnames or ()):
            raise ValueError(
                f"{corr_path}: needs corr_standard and corr_model columns"
            )
        for row in reader:
            try:
                measured = float(row["corr_standard"])
                model = float(row["corr_model"])
            except (TypeError, ValueError):
                # A short row reads None for its missing cells.
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
    report = ns["report"]
    if report is None:
        lines.append(f"- {ns['fit_note'] or 'fits unavailable'}")
    else:
        for name, mf in report["marginals"].items():
            amp, amp_s, p_val = (mf["fits"]["cosine"][k] for k in _COSINE_FIELDS)
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
    low = ns["low_statistics_points"]
    skipped = ns["skipped_points"]
    if low or skipped:
        lines += ["", "## Warnings", ""]
        if low:
            lines.append(f"- low-statistics points (some count < 10): {low}")
        for item in skipped:
            lines.append(
                f"- point {item['index']} skipped in fits: {item['reason']}"
            )
    out = base / "report.md"
    with atomic_write(out, encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return out
