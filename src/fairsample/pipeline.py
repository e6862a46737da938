"""End-to-end orchestration: simulate scans to disk, analyze them back.

A *run* is one angle scan: per scan point, two TTG1 files (one per
station) plus a JSON manifest that records every parameter, the RNG
algorithm and seeding rule, and the file names.  The manifest is written
last, as the commit point: a directory with a manifest is a complete run.
Every artifact is written to a temporary file and renamed into place, so
a write that fails part-way leaves the previous file or none.

Analysis is strictly file-based — it reads the manifest and the TTG1
files, never in-memory simulation state — so third-party streams can be
analyzed by writing a manifest by hand.  A manifest of schema 2 has these
blocks:

- ``data`` (required): ``varied``, the scanned station, and
  ``window_ticks``, the default coincidence window;
- ``points`` (required): each point's ``index``, angles and two file names;
- ``model`` (optional): the source's ``p``.  It alone gives the
  model-derived outputs: the ``corr_model`` column, the report's deviation
  and model CHSH lines and ``nosignalling.json``'s ``run.p``; without it
  they are nan, left out and null;
- ``simulation`` (written by ``simulate``): the config, the RNG and the file
  format.  Analysis only echoes it: the policy's ``kind`` and ``d`` go as
  they are into ``run`` and the report header, null when absent.

``report.md`` is rendered from the no-signalling document in the call that
writes it, never read back; the document's ``report`` is serialized from
the ``fits`` dataclasses.  Each point is analyzed into one record on a
thread pool, by default one thread per usable CPU; outputs are ordered by
point index regardless of scheduling, and are identical at any number of
jobs.
"""

from __future__ import annotations

import csv
import enum
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .coincidence import CoincidenceWindow, _is_int, count_coincidences
from .config import NUMBER, STATION_NAMES, RunConfig, config_to_dict, json_field
from .detection import COUNT_NAMES, SAMPLER_NAME, SAMPLER_VERSION, simulate_block
from .estimator import (
    AllZeroRatios,
    NoCoincidences,
    ScanPoint,
    ScanResult,
    UncertaintySet,
    ZeroSingles,
    correlation_standard,
    counting_uncertainties,
    estimate_block,
    evenodd_sums_standard,
)
from .fileio import atomic_write
from .fits import (
    InsufficientPoints, NoSignallingReport, check_alpha_level, nosignalling_stats,
)
from .quantum import SettingsPair, SourceState, Station, chsh_value, correlation_qt
from .timetags import TtgFormatError, generate_slices, open_ttg, ttg_writer

MANIFEST_NAME = "manifest.json"
REPORT_NAME = "report.md"
# The files analyze_run writes; simulate_run removes them with the manifest.
_ANALYSIS_NAMES = (
    "counts.csv", "correlation.csv", "evenodd_standard.csv", "marginals_singles.csv",
    "nosignalling.json", REPORT_NAME,
)
MANIFEST_SCHEMA_VERSION = 2
NOSIGNALLING_SCHEMA_VERSION = 3

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


def _usable_cpus() -> int:
    """The CPUs this process may run on, or the machine's count where the
    platform cannot say (no ``os.sched_getaffinity``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _check_jobs(jobs) -> None:
    # A Python or numpy integer; a bool is an int to Python, but no count.
    if jobs is not None and not (_is_int(jobs) and jobs >= 1):
        raise ValueError(f"jobs must be an integer >= 1 or None, got {jobs!r}")


def _map_points(work, items, jobs: "int | None") -> list:
    """``work`` over ``items`` in order, on ``jobs`` pool threads.

    ``jobs`` None means one per usable CPU; no more threads start than
    there are items.  Outputs do not depend on the number of threads: each
    point seeds its own generators from (seed, index, role).  One job runs
    on a single pool thread, which is serial, so there is one code path.
    """
    workers = max(1, min(jobs or _usable_cpus(), len(items)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, items))


def _point_files(index: int) -> tuple[str, str]:
    """Alice's and Bob's TTG1 file names of scan point ``index``."""
    return f"point_{index:03d}_alice.ttg", f"point_{index:03d}_bob.ttg"


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
    alice_name, bob_name = _point_files(index)
    tick = cfg.tick_resolution_ps
    # Each station's stream of each time slice goes to its file as soon as
    # it is made, so the point's memory does not grow with its length, and
    # Alice's stream of a slice is freed before Bob's is built.
    with ttg_writer(out_dir / alice_name, Station.ALICE, tick) as alice, \
            ttg_writer(out_dir / bob_name, Station.BOB, tick) as bob:
        writers = {Station.ALICE: alice, Station.BOB: bob}
        for stream in generate_slices(
            counts,
            pair_rate_hz=cfg.pair_rate_hz,
            tick_resolution_ps=tick,
            jitter_sd_ticks=cfg.jitter_sd_ticks,
            seed=_point_seed(cfg.seed, index, _ROLE_STREAMS),
            dark_rate_hz=cfg.dark_rate_hz,
        ):
            writers[stream.station].append(stream)
            del stream  # freed before the next stream is made
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

    The manifest is written only after every point file exists.  ``jobs``
    is the number of worker threads (default: one per usable CPU).
    """
    _check_jobs(jobs)
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / MANIFEST_NAME
    # A manifest left by an earlier run would vouch for point files that
    # this run is about to replace, and its analysis would outlive them.
    for name in (MANIFEST_NAME,) + _ANALYSIS_NAMES:
        (out_dir / name).unlink(missing_ok=True)
    # Each point file then lands on a free name: on ext4, a rename over a
    # file of an earlier run took about 1 ms, onto a free name 0.03 ms.
    for index in range(cfg.n_points):
        for name in _point_files(index):
            (out_dir / name).unlink(missing_ok=True)
    points = _map_points(
        lambda i: _simulate_point(cfg, i, out_dir), range(cfg.n_points), jobs
    )
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": "fairsample-run",
        "data": {
            "varied": cfg.varied.name.lower(),
            "window_ticks": cfg.coincidence_window_ticks,
        },
        "model": {"p": cfg.source.p},
        "simulation": {
            "config": config_to_dict(cfg),
            "rng": {
                "algorithm": "PCG64",
                "sampler": {"name": SAMPLER_NAME, "version": SAMPLER_VERSION},
                "seeding": "SeedSequence((seed, point_index, role)); "
                           "role 0 = the block's multinomial category counts, "
                           "role 1 = the Gamma(n + 1) emission horizon, one "
                           "uniform emission time per observed pair, one "
                           "N(0, 2 sd^2) offset per coincidence pair for Bob's "
                           "photon, per-photon jitter for the pairs redrawn in "
                           "the end zones, within min(40 sd, tau / 2) of either "
                           "end of [0, tau), and dark counts",
            },
            "format": {"name": "TTG1", "version": 1},
        },
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


def _parse_point(i: int, doc, base: Path, root: Path) -> ManifestPoint:
    """Validate one manifest point; file names must stay inside ``base``,
    whose resolved path is ``root``."""
    where = f"points[{i}]"
    index = json_field(doc, "index", (int,), where)
    angles = []
    for key in ("alpha_deg", "beta_deg"):
        value = json_field(doc, key, NUMBER, where)
        if not math.isfinite(value):
            raise ValueError(f"{where}.{key}: must be a finite number, got {value!r}")
        angles.append(math.radians(value))
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


@dataclass(frozen=True)
class Manifest:
    """What analysis reads of a run manifest."""

    base: Path  # the directory the manifest lies in
    varied: Station
    window: CoincidenceWindow  # the default one
    model: "SourceState | None"
    # The simulation's policy kind and depth, echoed as written.
    policy: object
    d: object
    points: tuple[ManifestPoint, ...]


def _echo(doc, *path):
    """The value at ``path`` in ``doc``, or None where the path leads nowhere."""
    for key in path:
        doc = doc.get(key) if isinstance(doc, dict) else None
    return doc


def load_manifest(manifest_path) -> Manifest:
    """Read and validate a manifest of schema 2.

    A malformed document, block or point raises ValueError that names the
    manifest path and the JSON path of the fault.
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
        data = json_field(doc, "data", (dict,))
        varied = json_field(data, "varied", (str,), "data")
        if varied not in STATION_NAMES:
            raise ValueError("data.varied: must be 'alice' or 'bob'")
        width = json_field(data, "window_ticks", (int,), "data")
        try:
            window = CoincidenceWindow(width)
        except ValueError as exc:
            raise ValueError(f"data.window_ticks: {exc}") from None
        model = None
        if "model" in doc:
            p = json_field(json_field(doc, "model", (dict,)), "p", NUMBER, "model")
            try:
                model = SourceState(p)
            except ValueError as exc:
                raise ValueError(f"model.p: {exc}") from None
        simulation = json_field(doc, "simulation", (dict,), default=None)
        root = base.resolve()
        points = [_parse_point(i, pd, base, root) for i, pd in enumerate(doc["points"])]
        # The fits need one non-varied angle: checked before any matching.
        key = "beta_deg" if varied == "alice" else "alpha_deg"
        fixed = [pt.beta if key == "beta_deg" else pt.alpha for pt in points]
        seen = set()
        for i, pt in enumerate(points):
            if pt.index in seen:
                raise ValueError(f"points[{i}].index: duplicate index {pt.index}")
            seen.add(pt.index)
            if abs(fixed[i] - fixed[0]) > 1e-12:
                first, got = (doc["points"][j][key] for j in (0, i))
                raise ValueError(
                    f"points[{i}].{key}: the non-varied angle must equal "
                    f"points[0]'s {first!r}, got {got!r}"
                )
    except (ValueError, RecursionError) as exc:  # too deeply nested to parse
        raise ValueError(f"{path}: {exc}") from None
    policy = _echo(simulation, "config", "policy")
    return Manifest(
        base, STATION_NAMES[varied], window, model,
        _echo(policy, "kind"), _echo(policy, "d"), tuple(points),
    )


class _Row(NamedTuple):
    """One analyzed point: what the tables, the fits and the report see."""

    index: int  # in the manifest
    pt: ScanPoint
    note: "str | None"  # why the point has no estimates
    sigma: UncertaintySet
    corr_standard: float  # nan without coincidences
    corr_model: float


def _analyze_point(
    point: ManifestPoint, window: CoincidenceWindow, model: "SourceState | None"
) -> _Row:
    index, alpha, beta = point.index, point.alpha, point.beta
    try:
        with open_ttg(point.alice_file) as alice, open_ttg(point.bob_file) as bob:
            # Swapped files would pass for a run with the stations' roles
            # exchanged.
            for key, reader, role in (
                ("alice_file", alice, Station.ALICE), ("bob_file", bob, Station.BOB)
            ):
                if reader.station != role:
                    raise ValueError(
                        f"{key} {reader.path} holds station "
                        f"{reader.station.name.lower()}'s events"
                    )
            # Both files are read chunk by chunk as they are matched.
            counts = count_coincidences(alice, bob, window)
    except TtgFormatError as exc:
        raise ValueError(f"point {index}: {exc.path}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"point {index}: {exc}") from None
    est, note = None, None
    try:
        est = estimate_block(counts)
    except (ZeroSingles, AllZeroRatios, NoCoincidences) as exc:
        note = f"{type(exc).__name__}: {exc}"
    pt = ScanPoint(alpha=alpha, beta=beta, counts=counts, est=est)
    # The estimate's own uncertainties, or counting ones where it has none.
    sigma = est.sigma if est is not None else counting_uncertainties(counts)
    corr = correlation_standard(counts) if counts.total_coincidences else math.nan
    corr_model = math.nan if model is None else correlation_qt(model, SettingsPair(alpha, beta))
    return _Row(index, pt, note, sigma, corr, corr_model)


def _fmt(value: float) -> str:
    if isinstance(value, float) and not math.isfinite(value):
        return "nan"
    return repr(float(value))


_CHANNEL_COLUMNS = [
    h for name in ("a_plus", "a_minus", "b_plus", "b_minus")
    for h in (name, f"sigma_{name}")
]


def _write_table(path: Path, header: list, rows: list, cells) -> None:
    """Write one CSV: per row the point's key columns, then ``cells(row)``."""
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point", "alpha_deg", "beta_deg"] + header)
        for row in rows:
            alpha, beta = (_fmt(math.degrees(a)) for a in (row.pt.alpha, row.pt.beta))
            writer.writerow([row.index, alpha, beta] + cells(row))


def _paired(values, sigmas) -> list:
    return [_fmt(v) for pair in zip(values, sigmas) for v in pair]


def _correlation_cells(row: _Row) -> list:
    est, sigma = row.pt.est, row.sigma
    return [
        _fmt(row.corr_standard),
        _fmt(sigma.correlation_standard),
        _fmt(est.correlation_singles) if est is not None else "nan",
        _fmt(sigma.correlation_singles),
        _fmt(row.corr_model),
    ]


def _evenodd_cells(row: _Row) -> list:
    if not row.pt.counts.total_coincidences:
        return ["nan"] * 8
    sums = evenodd_sums_standard(row.pt.counts).as_tuple()
    return _paired(sums, row.sigma.marginals_standard)


def _marginals_cells(row: _Row) -> list:
    if row.pt.est is None:
        return ["nan"] * 8 + [1]
    return _paired(row.pt.est.marginals.as_tuple(), row.sigma.marginals) + [
        int(row.sigma.low_statistics)
    ]


def _jsonable(value):
    """``value`` as JSON data, so the fit dataclasses alone define the report.

    A dataclass becomes an object of its fields in declared order, a dict an
    object and a tuple an array; an enum becomes its lower-case name and a
    non-finite float null.
    """
    if is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {_jsonable(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.name.lower()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _render_report(ns: dict, deviations: list) -> str:
    """The report.md text for the no-signalling document ``ns``.

    ``deviations`` holds, per point, the measured minus the model standard
    correlation; nan where the point has no measurement.
    """
    deviations = [d for d in deviations if math.isfinite(d)]
    run = ns["run"]
    p = run["p"]
    header = [f"source p = {p}"] if p is not None else []
    if run["policy"] is not None:
        header.append(f"policy = {run['policy']} (d = {run['d']})")
    lines = ["# Run summary", ""]
    if header:
        lines.append(f"- {', '.join(header)}")
    lines += [
        f"- varied station: {run['varied']}; scan points: {run['n_points']}; "
        f"coincidence window: {run['window_ticks']} ticks",
        "",
        "## Correlation",
        "",
    ]
    if p is None:
        lines.append("- no model given (manifest `model.p`): no model curve to compare with")
    elif deviations:
        rms = math.sqrt(sum(d * d for d in deviations) / len(deviations))
        worst = max(abs(d) for d in deviations)
        lines += [
            f"- RMS deviation of standard correlation from the model curve: {rms:.5f}",
            f"- max |deviation|: {worst:.5f}",
        ]
    else:
        lines.append("- no correlation points available")
    if p is not None:
        chsh = chsh_value(SourceState(p), *map(math.radians, CANONICAL_CHSH_DEG))
        lines += [
            "",
            f"- model CHSH at canonical settings "
            f"({', '.join(f'{v:g}°' for v in CANONICAL_CHSH_DEG)}): {chsh:.4f} "
            "(settings not covered by a single-scan run; value is the model "
            "prediction for this source)",
        ]
    lines += ["", "## No-signalling test (singles-normalized marginals)", ""]
    report = ns["report"]
    if report is None:
        lines.append(f"- {ns['fit_note'] or 'fits unavailable'}")
    else:
        for name, mf in report["marginals"].items():
            fit = mf["fits"]["cosine"]
            amp, amp_s, p_val = fit["amplitude"], fit["amplitude_sigma"], fit["p_value"]
            desc = (
                f"cosine amplitude {amp:.5f} ± {amp_s:.5f}, p = {p_val:.3g}"
                if None not in (amp, amp_s, p_val) else "cosine fit unavailable"
            )
            verdict = f" → {mf['verdict']}" if mf["verdict"] else ""
            lines.append(f"- {name} ({mf['n_points']} points): {desc}{verdict}")
        level = report["alpha_level"]
        verdict = (
            f"consistent** — distant-station marginals show no setting "
            f"dependence at p < {level:g}."
            if report["consistent"] else
            f"REJECTED at p<{level:g}** — distant-station marginals depend on "
            "the remote setting."
        )
        lines += ["", f"**Verdict: fair sampling {verdict}"]
    low, skipped = ns["low_statistics_points"], ns["skipped_points"]
    if low or skipped:
        lines += ["", "## Warnings", ""]
        if low:
            lines.append(f"- low-statistics points (some count < 10): {low}")
        for item in skipped:
            lines.append(f"- point {item['index']} skipped in fits: {item['reason']}")
    return "\n".join(lines) + "\n"


def analyze_run(
    manifest_path,
    window_ticks: "int | None" = None,
    alpha_level: float = 0.01,
    output_dir=None,
    jobs: "int | None" = None,
) -> AnalysisResult:
    """Run matching + estimation + fits over a run on disk.

    Writes counts.csv, correlation.csv, evenodd_standard.csv,
    marginals_singles.csv, nosignalling.json and report.md, rendered from
    that document, next to the manifest (or into ``output_dir``).  When
    fewer than 5 points support fits, the fit step is skipped with a note
    instead of failing the whole analysis.
    ``jobs`` is the number of worker threads (default: one per usable CPU).
    """
    # Bad arguments are refused before any file is read or made.
    _check_jobs(jobs)
    check_alpha_level(alpha_level)
    window = CoincidenceWindow(window_ticks) if window_ticks is not None else None
    manifest = load_manifest(manifest_path)
    if window is None:
        window = manifest.window
    out_dir = Path(output_dir) if output_dir is not None else manifest.base
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = sorted(
        _map_points(lambda pt: _analyze_point(pt, window, manifest.model), manifest.points, jobs),
        key=lambda row: row.index,
    )
    scan = ScanResult(points=tuple(row.pt for row in rows))
    skipped = tuple((row.index, row.note) for row in rows if row.note is not None)

    report: "NoSignallingReport | None" = None
    fit_note: "str | None" = None
    try:
        report = nosignalling_stats(scan, manifest.varied, alpha_level=alpha_level)
    except InsufficientPoints as exc:
        fit_note = f"fits skipped: insufficient points ({exc})"

    files = {name.split(".")[0]: out_dir / name for name in _ANALYSIS_NAMES}
    _write_table(
        files["counts"], list(COUNT_NAMES), rows,
        lambda row: row.pt.counts.as_array().tolist(),
    )
    _write_table(
        files["correlation"],
        ["corr_standard", "sigma_standard",
         "corr_singles", "sigma_singles", "corr_model"],
        rows, _correlation_cells,
    )
    _write_table(files["evenodd_standard"], _CHANNEL_COLUMNS, rows, _evenodd_cells)
    _write_table(
        files["marginals_singles"], _CHANNEL_COLUMNS + ["low_statistics"],
        rows, _marginals_cells,
    )

    low_stat_points = [
        row.index for row in rows if row.pt.est is not None and row.sigma.low_statistics
    ]
    ns_doc = {
        "schema_version": NOSIGNALLING_SCHEMA_VERSION,
        "kind": "fairsample-nosignalling",
        "run": {
            "p": manifest.model.p if manifest.model is not None else None,
            "policy": manifest.policy,
            "d": manifest.d,
            "varied": manifest.varied.name.lower(),
            "window_ticks": window.width_ticks,
            "n_points": len(manifest.points),
        },
        "alpha_level": alpha_level,
        "report": _jsonable(report),
        "fit_note": fit_note,
        "skipped_points": [{"index": i, "reason": r} for i, r in skipped],
        "low_statistics_points": low_stat_points,
    }
    with atomic_write(files["nosignalling"], encoding="utf-8") as fh:
        json.dump(ns_doc, fh, indent=2)
    deviations = [row.corr_standard - row.corr_model for row in rows]
    with atomic_write(files["report"], encoding="utf-8") as fh:
        fh.write(_render_report(ns_doc, deviations))
    return AnalysisResult(
        scan=scan, nosignalling=report, fit_note=fit_note, skipped=skipped,
        files=files,
    )

