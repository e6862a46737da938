"""End-to-end run pipeline: simulate to TTG1, analyze, report, CLI contract."""

import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import sys
import types

import numpy as np
import pytest

from fairsample import cli, pipeline, timetags
from fairsample.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, OUTPUT_DIR_ENV, main
from fairsample.coincidence import CoincidenceWindow
from fairsample.config import config_from_dict
from fairsample.detection import SAMPLER_NAME, SAMPLER_VERSION
from fairsample.pipeline import _render_report, analyze_run, load_manifest, simulate_run
from fairsample.quantum import Station
from fairsample.timetags import make_stream, read_ttg
from stream_helpers import write_stream

ANGLES_DEG = [0.0, 30.0, 60.0, 90.0, 120.0, 150.0, 180.0]


def small_doc(**overrides):
    doc = {
        "schema_version": 1,
        "source": {"p": 1.0},
        "efficiencies": {"a_plus": 0.25, "a_minus": 0.25, "b_plus": 0.25, "b_minus": 0.25},
        "policy": {"kind": "fair", "d": 0.0},
        "scan": {"varied": "alice", "angles_deg": ANGLES_DEG, "fixed_angle_deg": 0.0},
        "pairs_per_point": 20_000,
        "pair_rate_hz": 10_000.0,
        "tick_resolution_ps": 1000,
        "jitter_sd_ticks": 20.0,
        "coincidence_window_ticks": 120,
        "dark_rate_hz": 0.0,
        "seed": 5150,
    }
    doc.update(overrides)
    return doc


@pytest.fixture(scope="module")
def fair_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("fair_run")
    cfg = config_from_dict(small_doc())
    manifest = simulate_run(cfg, run_dir, jobs=2)
    result = analyze_run(manifest, jobs=2)
    return run_dir, cfg, result


# ---------------------------------------------------------------------------
# simulate_run artifacts
# ---------------------------------------------------------------------------


def test_manifest_contents(fair_run):
    run_dir, cfg, _ = fair_run
    doc = json.loads((run_dir / "manifest.json").read_text())
    manifest = load_manifest(run_dir / "manifest.json")
    points = manifest.points
    assert manifest.base == run_dir
    assert manifest.varied == cfg.varied
    assert manifest.window == CoincidenceWindow(cfg.coincidence_window_ticks)
    assert manifest.model == cfg.source
    assert (manifest.policy, manifest.d) == ("fair", 0.0)
    assert doc["kind"] == "fairsample-run"
    assert doc["schema_version"] == 2
    assert list(doc) == ["schema_version", "kind", "data", "model", "simulation", "points"]
    assert doc["data"] == {"varied": "alice", "window_ticks": cfg.coincidence_window_ticks}
    assert doc["model"] == {"p": cfg.source.p}
    simulation = doc["simulation"]
    assert config_from_dict(simulation["config"]) == cfg
    assert simulation["rng"]["algorithm"] == "PCG64"
    assert simulation["rng"]["sampler"] == {"name": SAMPLER_NAME, "version": SAMPLER_VERSION}
    assert SAMPLER_VERSION == 5
    assert "multinomial" in simulation["rng"]["seeding"]
    assert "Gamma(n + 1)" in simulation["rng"]["seeding"]
    assert simulation["format"] == {"name": "TTG1", "version": 1}
    assert len(doc["points"]) == len(ANGLES_DEG)
    for i, pt in enumerate(doc["points"]):
        assert pt["index"] == i
        assert pt["alpha_deg"] == pytest.approx(ANGLES_DEG[i])
        assert pt["beta_deg"] == 0.0
        assert (run_dir / pt["alice_file"]).exists()
        assert (run_dir / pt["bob_file"]).exists()
    assert [pt.index for pt in points] == list(range(len(ANGLES_DEG)))
    assert points[1].alpha == pytest.approx(math.radians(ANGLES_DEG[1]))
    assert points[1].bob_file == (run_dir / doc["points"][1]["bob_file"]).resolve()


def test_simulation_is_byte_deterministic(tmp_path):
    cfg = config_from_dict(small_doc(pairs_per_point=2000))
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    simulate_run(cfg, d1, jobs=1)
    simulate_run(cfg, d2, jobs=3)
    files = sorted(p.name for p in d1.iterdir())
    assert files == sorted(p.name for p in d2.iterdir())
    for name in files:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_load_manifest_rejects_other_documents(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps({"kind": "something-else", "schema_version": 2, "points": []}))
    with pytest.raises(ValueError, match="not a run manifest"):
        load_manifest(bad)
    bad.write_text(json.dumps({"kind": "fairsample-run", "schema_version": 2}))
    with pytest.raises(ValueError, match="point list"):
        load_manifest(bad)


# ---------------------------------------------------------------------------
# analyze_run artifacts
# ---------------------------------------------------------------------------


def test_failed_resimulation_leaves_no_manifest(tmp_path, monkeypatch):
    from fairsample.timetags import TtgWriter

    cfg = config_from_dict(small_doc(pairs_per_point=2_000))
    simulate_run(cfg, tmp_path)
    real_append = TtgWriter.append
    calls = []

    def failing_append(writer, stream):
        calls.append(stream.station)
        if len(calls) == 5:
            raise OSError("disk full")
        return real_append(writer, stream)

    monkeypatch.setattr(TtgWriter, "append", failing_append)
    with pytest.raises(OSError):
        simulate_run(cfg, tmp_path)
    # The old manifest would vouch for a mix of old and new point files.
    assert not (tmp_path / "manifest.json").exists()
    assert not list(tmp_path.glob(".*"))


def test_resimulation_into_a_used_directory_equals_a_fresh_one(tmp_path):
    # The point files of the earlier run are removed before the new ones are
    # written, so each new file is renamed onto a free name.
    doc = small_doc(pairs_per_point=2_000)
    used, fresh = tmp_path / "used", tmp_path / "fresh"
    simulate_run(config_from_dict(doc), used)
    cfg = config_from_dict({**doc, "seed": doc["seed"] + 1})
    simulate_run(cfg, used)
    simulate_run(cfg, fresh)
    names = sorted(p.name for p in fresh.iterdir())
    assert sorted(p.name for p in used.iterdir()) == names
    for name in names:
        assert (used / name).read_bytes() == (fresh / name).read_bytes()


def test_failed_analysis_keeps_previous_tables(tmp_path, monkeypatch):
    import fairsample.pipeline as pipeline

    manifest = simulate_run(config_from_dict(small_doc(pairs_per_point=5_000)), tmp_path)
    analyze_run(manifest)
    before = {p.name: p.read_bytes() for p in tmp_path.glob("*.*")}
    real_sums = pipeline.evenodd_sums_standard
    calls = []

    def failing_sums(counts):
        calls.append(counts)
        if len(calls) == 3:
            raise RuntimeError("interrupted mid-table")
        return real_sums(counts)

    monkeypatch.setattr(pipeline, "evenodd_sums_standard", failing_sums)
    with pytest.raises(RuntimeError):
        analyze_run(manifest, window_ticks=10)
    # counts.csv and correlation.csv were complete before the failure and
    # are replaced; the table that failed part-way (evenodd_standard.csv),
    # and those after it, keep their content.
    after = {p.name: p.read_bytes() for p in tmp_path.glob("*.*")}
    for name in ("counts.csv", "correlation.csv"):
        assert after.pop(name) != before.pop(name)
    assert after == before
    assert not list(tmp_path.glob(".*"))


def test_analysis_tables_exist(fair_run):
    run_dir, _, result = fair_run
    for key in ("counts", "correlation", "evenodd_standard", "marginals_singles", "nosignalling"):
        assert result.files[key].exists()
    assert len(result.scan.points) == len(ANGLES_DEG)


def test_counts_csv_matches_scan(fair_run):
    _, _, result = fair_run
    rows = result.files["counts"].read_text().strip().splitlines()
    assert len(rows) == 1 + len(ANGLES_DEG)
    header = rows[0].split(",")
    first = dict(zip(header, rows[1].split(",")))
    counts = result.scan.points[0].counts
    assert int(first["n_pp"]) == counts.n_pp
    assert int(first["s_b_minus"]) == counts.s_b_minus
    assert float(first["alpha_deg"]) == pytest.approx(0.0)


def test_correlation_csv_tracks_model(fair_run):
    _, _, result = fair_run
    rows = result.files["correlation"].read_text().strip().splitlines()
    header = rows[0].split(",")
    for line in rows[1:]:
        row = dict(zip(header, line.split(",")))
        model = -math.cos(2 * math.radians(float(row["alpha_deg"])))
        assert float(row["corr_model"]) == pytest.approx(model, abs=1e-9)
        # 20k pairs per point leave plenty of coincidences: both estimates live.
        assert abs(float(row["corr_standard"]) - model) < 0.1
        assert abs(float(row["corr_singles"]) - model) < 0.1
        # At exact (anti)correlation every pair lands in the same parity
        # class and the spread is legitimately zero; elsewhere it is not.
        if 0.0 < float(row["alpha_deg"]) % 90.0:
            assert float(row["sigma_standard"]) > 0


def test_nosignalling_json_fair_run(fair_run):
    _, cfg, result = fair_run
    doc = json.loads(result.files["nosignalling"].read_text())
    assert doc["kind"] == "fairsample-nosignalling"
    assert doc["run"]["policy"] == "fair"
    assert doc["run"]["window_ticks"] == cfg.coincidence_window_ticks
    assert doc["alpha_level"] == 0.01
    report = doc["report"]
    assert report is not None
    assert report["consistent"] is True
    assert report["marginals"]["b_plus"]["verdict"] == "consistent"
    assert report["marginals"]["a_plus"]["verdict"] is None
    # The fit dataclasses' field order is the layout the benchmark reads.
    assert list(report) == ["distant", "alpha_level", "consistent", "marginals"]
    assert report["distant"] == "bob"
    b_plus = report["marginals"]["b_plus"]
    assert list(b_plus) == ["n_points", "verdict", "fits"]
    assert list(b_plus["fits"]) == ["constant", "cosine"]
    fit_keys = ["model", "params", "cov", "chi2", "dof", "f_stat", "p_value",
                "amplitude", "amplitude_sigma"]
    for model, fit in b_plus["fits"].items():
        assert list(fit) == fit_keys
        assert fit["model"] == model
    constant = b_plus["fits"]["constant"]
    for key in ("f_stat", "p_value", "amplitude", "amplitude_sigma"):
        assert constant[key] is None
    assert result.nosignalling is not None
    assert result.nosignalling.consistent


def test_analysis_deterministic_across_jobs(fair_run, tmp_path):
    run_dir, _, result = fair_run
    again = analyze_run(run_dir / "manifest.json", output_dir=tmp_path, jobs=1)
    assert again.files["counts"].read_bytes() == result.files["counts"].read_bytes()
    assert again.files["correlation"].read_bytes() == result.files["correlation"].read_bytes()


class _PoolRecorder:
    """Stands in for ThreadPoolExecutor: records each ``max_workers`` asked
    for and maps serially, so no test starts the threads it asks for."""

    def __init__(self):
        self.max_workers = []

    def __call__(self, max_workers):
        self.max_workers.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def pool(monkeypatch):
    recorder = _PoolRecorder()
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", recorder)
    return recorder


@pytest.mark.parametrize("jobs", [0, -3, 1.5, "2", True, np.bool_(True)])
def test_bad_jobs_are_refused_before_any_file_is_written(fair_run, tmp_path, pool, jobs):
    run_dir, cfg, _ = fair_run
    out = tmp_path / "run"
    with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
        simulate_run(cfg, out, jobs=jobs)
    with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
        analyze_run(run_dir / "manifest.json", output_dir=out, jobs=jobs)
    assert not out.exists()
    assert pool.max_workers == []


def test_numpy_integer_jobs_write_the_files_of_python_integer_jobs(tmp_path):
    cfg = config_from_dict(small_doc(pairs_per_point=2000))
    digests = []
    for name, jobs in (("python", 2), ("numpy", np.int64(2))):
        out = tmp_path / name
        analyze_run(simulate_run(cfg, out, jobs=jobs), jobs=jobs)
        digests.append({
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()
        })
    assert len(digests[0]) == 2 * len(ANGLES_DEG) + 7
    assert digests[0] == digests[1]


@pytest.mark.parametrize("kwargs", [
    {"window_ticks": -1}, {"window_ticks": 1.5}, {"window_ticks": True},
    {"window_ticks": 2**64},
    {"alpha_level": 0.0}, {"alpha_level": 1.0}, {"alpha_level": math.nan},
])
def test_bad_analysis_arguments_are_refused_before_any_file_is_written(
    fair_run, tmp_path, pool, kwargs
):
    run_dir, _, _ = fair_run
    out = tmp_path / "run"
    with pytest.raises(ValueError, match="window width|alpha_level"):
        analyze_run(run_dir / "manifest.json", output_dir=out, **kwargs)
    assert not out.exists()
    assert pool.max_workers == []
    # Refused before the manifest is read: a missing one is not reported.
    with pytest.raises(ValueError, match="window width|alpha_level"):
        analyze_run(tmp_path / "absent" / "manifest.json", **kwargs)


def test_no_more_threads_than_points(tmp_path, pool):
    cfg = config_from_dict(small_doc(pairs_per_point=2000, scan={
        "varied": "alice", "angles_deg": [0.0, 45.0, 90.0], "fixed_angle_deg": 0.0,
    }))
    manifest = simulate_run(cfg, tmp_path, jobs=8)
    analyze_run(manifest, jobs=8)
    analyze_run(manifest, jobs=2)
    assert pool.max_workers == [3, 3, 2]


def test_default_jobs_are_the_usable_cpus(tmp_path, pool, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 4, 7}, raising=False)
    manifest = simulate_run(config_from_dict(small_doc(pairs_per_point=2000)), tmp_path)
    analyze_run(manifest)
    assert pool.max_workers == [3, 3]


@pytest.mark.parametrize("cpu_count, workers", [(5, 5), (None, 1)])
def test_default_jobs_without_affinity_are_the_cpu_count(pool, monkeypatch, cpu_count, workers):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert pipeline._map_points(lambda i: i * i, range(7), None) == [i * i for i in range(7)]
    assert pool.max_workers == [workers]


def test_window_override_changes_matching(fair_run, tmp_path):
    run_dir, _, result = fair_run
    narrow = analyze_run(run_dir / "manifest.json", window_ticks=1, output_dir=tmp_path)
    doc = json.loads(narrow.files["nosignalling"].read_text())
    assert doc["run"]["window_ticks"] == 1
    # A 1-tick window cannot bridge the 20-tick jitter: matches collapse.
    assert narrow.scan.points[0].counts.total_coincidences < result.scan.points[
        0
    ].counts.total_coincidences


def test_report_fair_run(fair_run):
    run_dir, _, result = fair_run
    path = result.files["report"]
    assert path == run_dir / "report.md"
    text = path.read_text()
    assert "fair sampling consistent" in text
    assert "RMS deviation" in text
    assert "model CHSH" in text


# ---------------------------------------------------------------------------
# Separability: analysis consumes only the manifest plus TTG1 files
# ---------------------------------------------------------------------------


def _write_manifest(tmp_path, points):
    """A hand-written run of (index, alpha_deg, Alice stream, Bob stream) points."""
    entries = []
    for i, (index, alpha, a, b) in enumerate(points):
        names = (f"pt{i}_a.ttg", f"pt{i}_b.ttg")
        write_stream(a, tmp_path / names[0])
        write_stream(b, tmp_path / names[1])
        entries.append(
            {
                "index": index,
                "alpha_deg": alpha,
                "beta_deg": 0.0,
                "alice_file": names[0],
                "bob_file": names[1],
                "n_pairs": 1,
            }
        )
    manifest = {
        "schema_version": 2,
        "kind": "fairsample-run",
        "data": {"varied": "alice", "window_ticks": 120},
        "model": {"p": 1.0},
        "points": entries,
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def _u8(values):
    return np.array(values, dtype=np.uint8)


def _hand_written_manifest(tmp_path, indices=(0, 1, 2)):
    """Three points, one coincidence each, no Alice minus singles."""
    points = []
    for i, (index, alpha) in enumerate(zip(indices, [0.0, 45.0, 90.0])):
        t_a = np.array([1000 + 5000 * i], dtype=np.uint64)
        t_b = np.array([1030 + 5000 * i, 40_000_000 + i], dtype=np.uint64)
        a = make_stream(Station.ALICE, 1000, t_a, _u8([0]), _u8([0]))
        b = make_stream(Station.BOB, 1000, t_b, _u8([1, 1]), _u8([0, 0]))
        points.append((index, alpha, a, b))
    return _write_manifest(tmp_path, points)


def _cell_streams(cells, only_a=(), only_b=()):
    """Streams of ``cells`` = (n_pp, n_pm, n_mp, n_mm) coincident pairs.

    ``only_a`` and ``only_b`` give the signs of unmatched singles.
    """
    pairs = [sign for sign, n in zip([(0, 0), (0, 1), (1, 0), (1, 1)], cells) for _ in range(n)]
    t = [1000 * (k + 1) for k in range(len(pairs))]
    streams = []
    for station, own, only in ((Station.ALICE, 0, only_a), (Station.BOB, 1, only_b)):
        # Each station's unmatched singles lie far from everything else.
        times = t + [10**8 * (own + 1) + 1000 * k for k in range(len(only))]
        signs = [pair[own] for pair in pairs] + list(only)
        streams.append(make_stream(
            station, 1000, np.array(times, dtype=np.uint64), _u8(signs), _u8([0] * len(signs))
        ))
    return streams


def test_analyze_hand_written_manifest(tmp_path):
    result = analyze_run(_hand_written_manifest(tmp_path))
    for pt in result.scan.points:
        assert pt.counts.n_pm == 1
        assert pt.counts.s_b_minus == 2
    # One coincidence per point cannot support fits: noted, not fatal.
    assert result.fit_note is not None
    assert "insufficient points" in result.fit_note


def test_outputs_carry_manifest_point_indices(tmp_path):
    # Indices 4, 9, 2: every output names a point by its index, in index
    # order, never by its rank in the scan.
    result = analyze_run(_hand_written_manifest(tmp_path, indices=(4, 9, 2)))
    assert [pt.alpha for pt in result.scan.points] == [math.radians(a) for a in (90, 0, 45)]
    for name in ("counts", "correlation", "evenodd_standard", "marginals_singles"):
        rows = result.files[name].read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["2", "4", "9"]
    doc = json.loads(result.files["nosignalling"].read_text())
    assert [p["index"] for p in doc["skipped_points"]] == [2, 4, 9]
    report = result.files["report"].read_text()
    assert "point 9 skipped" in report


# ---------------------------------------------------------------------------
# Empty runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_points", [5, 6])
def test_right_angle_scan_skips_fits(tmp_path, n_points):
    # sin 2x vanishes on every point, so the cosine fit has no unique
    # solution; it must become a note, not a verdict.
    angles = [90.0 * i for i in range(n_points)]
    cfg = config_from_dict(small_doc(scan={
        "varied": "alice", "angles_deg": angles, "fixed_angle_deg": 0.0,
    }))
    result = analyze_run(simulate_run(cfg, tmp_path))
    assert result.nosignalling is None
    assert "insufficient points" in result.fit_note
    assert "rank 2 < 3" in result.fit_note
    assert json.loads(result.files["nosignalling"].read_text())["report"] is None
    assert "insufficient points" in result.files["report"].read_text()


def test_zero_pair_run_analyzes_cleanly(tmp_path):
    cfg = config_from_dict(small_doc(pairs_per_point=0))
    manifest = simulate_run(cfg, tmp_path)
    for pt in json.loads(manifest.read_text())["points"]:
        assert (tmp_path / pt["alice_file"]).stat().st_size == 24
        assert (tmp_path / pt["bob_file"]).stat().st_size == 24
    result = analyze_run(manifest)
    assert all(pt.counts.total_coincidences == 0 for pt in result.scan.points)
    assert all(pt.est is None for pt in result.scan.points)
    assert "insufficient points" in result.fit_note
    doc = json.loads(result.files["nosignalling"].read_text())
    assert doc["report"] is None
    report_text = result.files["report"].read_text()
    assert "insufficient points" in report_text


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _write_cfg(tmp_path, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_simulate_analyze_report(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, small_doc(pairs_per_point=5000))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--output-dir", str(out), "--jobs", "2"]) == EXIT_OK
    assert (out / "manifest.json").exists()
    assert main(["analyze", "--manifest", str(out / "manifest.json")]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "no-signalling verdict" in stdout
    assert main(["report", "--dir", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "Run summary" in stdout
    assert (out / "report.md").exists()


def test_cli_default_jobs_give_the_files_of_one_job(tmp_path, capsys, monkeypatch):
    # Three CPUs whatever the host has, so the default runs three threads.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    cfg_path = _write_cfg(tmp_path, small_doc(pairs_per_point=5000, dark_rate_hz=50.0))
    digests = []
    for name, jobs in (("default", []), ("one", ["--jobs", "1"])):
        out = tmp_path / name
        simulate = ["simulate", "--config", str(cfg_path), "--output-dir", str(out)]
        assert main(simulate + jobs) == EXIT_OK
        assert main(["analyze", "--manifest", str(out / "manifest.json")] + jobs) == EXIT_OK
        assert main(["report", "--dir", str(out)]) == EXIT_OK
        digests.append({
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()
        })
    # Two TTG1 files per point, the manifest, four CSVs, nosignalling.json
    # and report.md.
    assert len(digests[0]) == 2 * len(ANGLES_DEG) + 7
    assert digests[0] == digests[1]


needs_glibc_mallopt = pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or platform.libc_ver()[0] != "glibc"
    or not hasattr(ctypes.CDLL(None), "mallopt"),
    reason="the heap pad is a glibc mallopt setting",
)


@needs_glibc_mallopt
def test_cli_reanalysis_faults_in_no_fresh_memory(tmp_path, capsys):
    # One arm of the README quick start at 2 x 10^5 pairs per point.  The
    # first analysis sizes the heaps.  With the CLI's heap pad, the second
    # finds every page it needs still resident; without it, each point
    # faults its freed working set back in (about 5700 faults in all).
    doc = small_doc(
        efficiencies={"a_plus": 0.10, "a_minus": 0.05, "b_plus": 0.08, "b_minus": 0.08},
        scan={"varied": "alice", "angles_deg": [9.0 * i for i in range(21)],
              "fixed_angle_deg": 0.0},
        pairs_per_point=200_000,
        pair_rate_hz=250.0,
        jitter_sd_ticks=50.0,
        coincidence_window_ticks=250,
        seed=1234,
    )
    out = tmp_path / "out"
    analyze = ["analyze", "--manifest", str(out / "manifest.json")]
    assert main(["simulate", "--config", str(_write_cfg(tmp_path, doc)),
                 "--output-dir", str(out)]) == EXIT_OK
    assert main(analyze) == EXIT_OK
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(analyze) == EXIT_OK
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 10 * 21


def test_cli_sets_the_allocator_before_any_work(tmp_path, capsys, monkeypatch):
    # One arena with the heap pad, asked for before the handler starts any
    # pool thread, which would otherwise get an arena of its own.
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    seen = []
    monkeypatch.setattr(cli, "_cmd_report", lambda args: seen.append(list(calls)) or 0)
    assert main(["report", "--dir", str(tmp_path)]) == EXIT_OK
    # glibc's M_TOP_PAD is -2 and M_ARENA_MAX is -8.
    assert seen == [[(-2, cli._HEAP_TOP_PAD), (-8, 1)]]


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize(
    "cdll", [_no_c_library, lambda name: object()], ids=["no-libc", "no-mallopt"]
)
def test_cli_runs_without_mallopt(tmp_path, capsys, monkeypatch, cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    cfg_path = _write_cfg(tmp_path, small_doc(pairs_per_point=2000))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--output-dir", str(out)]) == EXIT_OK
    assert main(["analyze", "--manifest", str(out / "manifest.json")]) == EXIT_OK


def test_cli_invalid_config_field_exit_code(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, small_doc(source={"p": 1.5}))
    code = main(["simulate", "--config", str(cfg_path), "--output-dir", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "source.p" in capsys.readouterr().err


def test_cli_emission_clock_beyond_float_precision(tmp_path, capsys):
    # 1 ps ticks at 1 Hz: 10^12 ticks per pair, 2^53 ticks after 9008 pairs.
    cfg_path = _write_cfg(
        tmp_path, small_doc(pairs_per_point=10_000, pair_rate_hz=1.0, tick_resolution_ps=1)
    )
    code = main(["simulate", "--config", str(cfg_path), "--output-dir", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "pairs_per_point" in capsys.readouterr().err


@pytest.mark.parametrize("jitter", [2**63, 2**64, 1e300])
def test_cli_jitter_beyond_float_precision(tmp_path, capsys, jitter):
    # Its hold-back reach of 120 SD passes 2**53 ticks: a config error, not
    # a data error met while the events are generated.
    cfg_path = _write_cfg(tmp_path, small_doc(jitter_sd_ticks=jitter))
    code = main(["simulate", "--config", str(cfg_path), "--output-dir", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "jitter_sd_ticks" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_missing_config_file(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "none.json"), "--output-dir", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_cli_requires_some_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    cfg_path = _write_cfg(tmp_path, small_doc())
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "output" in capsys.readouterr().err


def test_cli_output_dir_from_environment(tmp_path, capsys, monkeypatch):
    out = tmp_path / "from_env"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(out))
    cfg_path = _write_cfg(tmp_path, small_doc(pairs_per_point=0))
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK
    assert (out / "manifest.json").exists()


def test_cli_output_dir_from_config_field(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    out = tmp_path / "from_cfg"
    cfg_path = _write_cfg(tmp_path, small_doc(pairs_per_point=0, output_dir=str(out)))
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK
    assert (out / "manifest.json").exists()


def test_cli_analyze_missing_manifest(tmp_path, capsys):
    assert main(["analyze", "--manifest", str(tmp_path / "manifest.json")]) == EXIT_DATA


def test_cli_analyze_corrupt_ttg(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, small_doc(pairs_per_point=500))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--output-dir", str(out)]) == EXIT_OK
    victim = out / "point_000_alice.ttg"
    victim.write_bytes(victim.read_bytes()[:30])
    assert main(["analyze", "--manifest", str(out / "manifest.json")]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def _simulated_manifest(tmp_path):
    cfg_path = _write_cfg(tmp_path, small_doc(pairs_per_point=500))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--output-dir", str(out)]) == EXIT_OK
    path = out / "manifest.json"
    return path, json.loads(path.read_text())


def test_cli_analyze_point_missing_bob_file(tmp_path, capsys):
    path, doc = _simulated_manifest(tmp_path)
    del doc["points"][2]["bob_file"]
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--manifest", str(path)]) == EXIT_DATA
    assert "points[2].bob_file: missing" in capsys.readouterr().err


def test_cli_analyze_point_file_outside_run_dir(tmp_path, capsys):
    path, doc = _simulated_manifest(tmp_path)
    # A valid stream one level up: analysis would succeed if it followed the name.
    (tmp_path / "x.ttg").write_bytes((path.parent / doc["points"][0]["alice_file"]).read_bytes())
    doc["points"][0]["alice_file"] = "../x.ttg"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--manifest", str(path)]) == EXIT_DATA
    assert "inside the run directory" in capsys.readouterr().err


def test_cli_analyze_point_file_symlinked_outside_run_dir(tmp_path, capsys):
    path, doc = _simulated_manifest(tmp_path)
    # The name stays inside the run directory; the file it names does not.
    victim = path.parent / doc["points"][0]["alice_file"]
    outside = tmp_path / "x.ttg"
    outside.write_bytes(victim.read_bytes())
    victim.unlink()
    victim.symlink_to(outside)
    assert main(["analyze", "--manifest", str(path)]) == EXIT_DATA
    assert "inside the run directory" in capsys.readouterr().err


def test_cli_analyze_through_a_symlinked_run_dir(tmp_path):
    path, _ = _simulated_manifest(tmp_path)
    link = tmp_path / "link"
    link.symlink_to(path.parent)
    for manifest, out in ((path, "direct"), (link / "manifest.json", "via_link")):
        code = main(["analyze", "--manifest", str(manifest), "--output-dir", str(tmp_path / out)])
        assert code == EXIT_OK
    counts = [(tmp_path / out / "counts.csv").read_bytes() for out in ("direct", "via_link")]
    assert counts[0] == counts[1]


def test_cli_analyze_rejects_swapped_station_files(tmp_path, capsys):
    # Each file is a valid stream: only its header's station byte shows
    # that it holds the other station's events.
    path, doc = _simulated_manifest(tmp_path)
    for pt in doc["points"]:
        pt["alice_file"], pt["bob_file"] = pt["bob_file"], pt["alice_file"]
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--manifest", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "point 0: alice_file " in err
    assert "point_000_bob.ttg holds station bob's events" in err
    assert not (path.parent / "nosignalling.json").exists()


def test_cli_analyze_names_the_point_of_a_corrupt_file(tmp_path, capsys):
    path, _ = _simulated_manifest(tmp_path)
    victim = path.parent / "point_002_bob.ttg"
    victim.write_bytes(victim.read_bytes()[:30])
    assert main(["analyze", "--manifest", str(path)]) == EXIT_DATA
    assert f"point 2: {victim.resolve()}: header promises" in capsys.readouterr().err


def test_cli_analyze_names_the_point_of_a_fault_in_a_later_chunk(tmp_path, capsys, monkeypatch):
    # Read in chunks of 16 records, the file's fault turns up while its
    # point is being matched, and is still named with the point and file.
    path, _ = _simulated_manifest(tmp_path)
    victim = path.parent / "point_002_bob.ttg"
    raw = bytearray(victim.read_bytes())
    raw[24 + 9 * 40 : 24 + 9 * 40 + 8] = bytes(8)
    victim.write_bytes(bytes(raw))
    monkeypatch.setattr(timetags, "BLOCK", 16)
    assert main(["analyze", "--manifest", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"point 2: {victim.resolve()}: record 40 timestamp 0 is before" in err


def test_analysis_does_not_depend_on_the_chunk_size(tmp_path, monkeypatch):
    # The same files read and matched in chunks of 2**18 or of 64 records.
    manifest = simulate_run(config_from_dict(small_doc(pairs_per_point=5_000)), tmp_path)
    whole = analyze_run(manifest, output_dir=tmp_path / "whole")
    monkeypatch.setattr(timetags, "BLOCK", 64)
    chunked = analyze_run(manifest, output_dir=tmp_path / "chunked")
    assert chunked.scan == whole.scan
    for name, path in whole.files.items():
        assert chunked.files[name].read_bytes() == path.read_bytes(), name


def test_cli_analyze_names_the_point_of_a_tick_mismatch(tmp_path, capsys):
    path, _ = _simulated_manifest(tmp_path)
    victim = path.parent / "point_002_bob.ttg"
    write_stream(dataclasses.replace(read_ttg(victim), tick_resolution_ps=500), victim)
    assert main(["analyze", "--manifest", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "point 2: stream A has 1000 ps/tick, stream B has 500 ps/tick" in err


def test_cli_analyze_skips_a_zero_sigma_point(tmp_path, capsys):
    # Point 3 has all its coincidences in the -- cell, so its singles-
    # normalized marginals are 0 and 1 with zero sigma: no fit weight.
    points = [
        (i, 15.0 * i, *_cell_streams((3, 2 + i % 3, 2, 3), only_a=[0], only_b=[1]))
        for i in range(7)
    ]
    points[3] = (3, 45.0, *_cell_streams((0, 0, 0, 9), only_a=[0], only_b=[0, 0]))
    path = _write_manifest(tmp_path, points)
    assert main(["analyze", "--manifest", str(path)]) == EXIT_OK
    for name in ("counts.csv", "correlation.csv", "evenodd_standard.csv",
                 "marginals_singles.csv", "nosignalling.json"):
        assert (tmp_path / name).exists()
    assert "3,45.0,0.0,0,0,0,9,1,9,2,9" in (tmp_path / "counts.csv").read_text()
    report = json.loads((tmp_path / "nosignalling.json").read_text())["report"]
    assert {name: mf["n_points"] for name, mf in report["marginals"].items()} == {
        "a_plus": 6, "b_plus": 6,
    }
    assert main(["report", "--dir", str(tmp_path)]) == EXIT_OK
    assert "- b_plus (6 points): cosine amplitude " in (tmp_path / "report.md").read_text()


@pytest.mark.parametrize(
    "key, value",
    [("index", "0"), ("index", True), ("alpha_deg", "ten"), ("beta_deg", None),
     ("alice_file", 7), ("bob_file", "/x.ttg"), ("bob_file", "."),
     pytest.param("index", 0, id="index-duplicate")],
)
def test_load_manifest_rejects_malformed_points(tmp_path, key, value):
    path, doc = _simulated_manifest(tmp_path)
    doc["points"][1][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"points\[1\]\.{key}"):
        load_manifest(path)


@pytest.mark.parametrize("version", [True, 1.0, 2.0], ids=["true", "1.0", "2.0"])
def test_load_manifest_reads_schema_version_as_integer(tmp_path, version):
    path, doc = _simulated_manifest(tmp_path)
    doc["schema_version"] = version
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="schema"):
        load_manifest(path)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: doc.pop("data"), "data: missing required field"),
        (lambda doc: doc["data"].update(varied="carol"), "data.varied: must be 'alice' or 'bob'"),
        (lambda doc: doc["data"].update(window_ticks="x"), "data.window_ticks: must be an integer"),
        (lambda doc: doc["data"].update(window_ticks=2**64), "data.window_ticks: window width"),
        (lambda doc: doc["model"].update(p=5), "model.p: p must be in [0, 1], got 5"),
        (lambda doc: doc["model"].pop("p"), "model.p: missing required field"),
        (lambda doc: doc.update(model=None), "model: must be an object"),
        (lambda doc: doc.update(simulation=[]), "simulation: must be an object"),
    ],
    ids=["no-data", "varied-carol", "window-string", "window-2**64", "p-5", "no-p",
         "model-null", "simulation-array"],
)
def test_cli_analyze_bad_manifest_config_is_a_data_error(tmp_path, capsys, mutate, message):
    # The user gave no config here: the manifest's blocks are data.
    path, doc = _simulated_manifest(tmp_path)
    mutate(doc)
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--manifest", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"data error: {path}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda doc: doc["points"][1].update(alpha_deg=10**400), "points[1].alpha_deg"),
        (lambda doc: doc["data"].update(window_ticks=10**400), "data.window_ticks"),
    ],
    ids=["alpha-10**400", "data-window-10**400"],
)
def test_cli_analyze_names_an_integer_beyond_float_range(tmp_path, capsys, mutate, field):
    path, doc = _simulated_manifest(tmp_path)
    mutate(doc)
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--manifest", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"data error: {path}: {field}: must be below 2**1024" in err


def test_cli_simulate_refuses_too_deeply_nested_json(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text("[" * 3000 + "]" * 3000)
    code = main(["simulate", "--config", str(cfg_path), "--output-dir", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "config error: <file>: invalid JSON" in capsys.readouterr().err


def test_cli_analyze_refuses_too_deeply_nested_json(tmp_path, capsys):
    path, _ = _simulated_manifest(tmp_path)
    path.write_text("[" * 3000 + "]" * 3000)
    assert main(["analyze", "--manifest", str(path)]) == EXIT_DATA
    assert f"data error: {path}: " in capsys.readouterr().err


def test_scan_points_counted_from_the_point_list(tmp_path, capsys):
    # A hand-written manifest may echo a config of fewer angles than it has points.
    path, doc = _simulated_manifest(tmp_path)
    doc["simulation"]["config"]["scan"]["angles_deg"] = [0.0]
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--manifest", str(path)]) == EXIT_OK
    ns = json.loads((path.parent / "nosignalling.json").read_text())
    assert ns["run"]["n_points"] == len(doc["points"]) == len(ANGLES_DEG)
    assert main(["report", "--dir", str(path.parent)]) == EXIT_OK
    assert f"scan points: {len(ANGLES_DEG)};" in (path.parent / "report.md").read_text()


def test_analysis_reads_no_simulation_config(tmp_path, capsys):
    # A config the simulator would refuse, and one of another window and
    # station: analysis echoes the policy and reads nothing else of it.
    path, doc = _simulated_manifest(tmp_path)
    assert main(["analyze", "--manifest", str(path), "--output-dir", str(tmp_path / "as_written")]) == EXIT_OK
    config = doc["simulation"]["config"]
    config.update(seed="x", coincidence_window_ticks=1, pairs_per_point=-1)
    config["scan"]["varied"] = "bob"
    del config["efficiencies"]
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--manifest", str(path), "--output-dir", str(tmp_path / "edited")]) == EXIT_OK
    for name in ("counts.csv", "correlation.csv", "evenodd_standard.csv",
                 "marginals_singles.csv", "nosignalling.json", "report.md"):
        assert (tmp_path / "edited" / name).read_bytes() == (
            tmp_path / "as_written" / name).read_bytes(), name


def test_data_only_manifest_leaves_out_the_model_outputs(tmp_path, capsys):
    path, doc = _simulated_manifest(tmp_path)
    path.write_text(json.dumps({
        key: doc[key] for key in ("schema_version", "kind", "data", "points")
    }))
    assert main(["analyze", "--manifest", str(path)]) == EXIT_OK
    run = json.loads((path.parent / "nosignalling.json").read_text())["run"]
    assert run == {"p": None, "policy": None, "d": None, "varied": "alice",
                   "window_ticks": 120, "n_points": len(ANGLES_DEG)}
    rows = (path.parent / "correlation.csv").read_text().splitlines()
    assert rows[0].endswith(",corr_model")
    assert all(row.endswith(",nan") for row in rows[1:])
    report = (path.parent / "report.md").read_text()
    assert "source p" not in report and "policy" not in report
    assert "RMS deviation" not in report and "model CHSH" not in report
    assert "- no model given (manifest `model.p`)" in report
    assert "**Verdict: fair sampling consistent**" in report


def test_report_echoes_a_policy_without_a_model(tmp_path, capsys):
    path, doc = _simulated_manifest(tmp_path)
    del doc["model"]
    doc["simulation"] = {"config": {"policy": {"kind": "unfair_malus", "d": 0.25}}}
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--manifest", str(path)]) == EXIT_OK
    run = json.loads((path.parent / "nosignalling.json").read_text())["run"]
    assert (run["p"], run["policy"], run["d"]) == (None, "unfair_malus", 0.25)
    report = (path.parent / "report.md").read_text()
    assert "\n- policy = unfair_malus (d = 0.25)\n" in report


def test_cli_analyze_names_a_point_off_the_fixed_angle_before_matching(
    tmp_path, capsys, monkeypatch
):
    path, doc = _simulated_manifest(tmp_path)
    doc["points"][3]["beta_deg"] = 10.0
    path.write_text(json.dumps(doc))
    matched = []
    analyze_point = pipeline._analyze_point
    monkeypatch.setattr(
        pipeline, "_analyze_point",
        lambda *args: matched.append(args) or analyze_point(*args),
    )
    assert main(["analyze", "--manifest", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"data error: {path}: points[3].beta_deg: the non-varied angle" in err
    assert "Traceback" not in err
    assert matched == []

def test_cli_analyze_window_and_alpha_flags(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, small_doc(pairs_per_point=5000))
    out = tmp_path / "out"
    main(["simulate", "--config", str(cfg_path), "--output-dir", str(out)])
    code = main(
        ["analyze", "--manifest", str(out / "manifest.json"), "--window", "5", "--alpha-level", "0.2"]
    )
    assert code == EXIT_OK
    doc = json.loads((out / "nosignalling.json").read_text())
    assert doc["run"]["window_ticks"] == 5
    assert doc["alpha_level"] == 0.2


def test_cli_report_empty_dir(tmp_path, capsys):
    assert main(["report", "--dir", str(tmp_path)]) == EXIT_DATA
    assert "no analysis artifacts found" in capsys.readouterr().err


def test_simulate_removes_the_analysis_of_the_run_it_replaces(tmp_path, capsys):
    # Else report would print the unfair run's "policy = unfair_malus
    # (d = 0.9)" for the fair run that replaced it.
    out = tmp_path / "out"
    unfair = small_doc(pairs_per_point=2000, policy={"kind": "unfair_malus", "d": 0.9})
    cfg_path = _write_cfg(tmp_path, unfair)
    assert main(["simulate", "--config", str(cfg_path), "--output-dir", str(out)]) == EXIT_OK
    assert main(["analyze", "--manifest", str(out / "manifest.json")]) == EXIT_OK
    cfg_path = _write_cfg(tmp_path, small_doc(pairs_per_point=2000))
    assert main(["simulate", "--config", str(cfg_path), "--output-dir", str(out)]) == EXIT_OK
    assert [p.name for p in out.iterdir() if p.suffix != ".ttg"] == ["manifest.json"]
    capsys.readouterr()
    assert main(["report", "--dir", str(out)]) == EXIT_DATA
    assert "no analysis artifacts found" in capsys.readouterr().err


def test_analyze_writes_the_report_that_report_prints(fair_run, tmp_path, capsys):
    run_dir, _, _ = fair_run
    result = analyze_run(run_dir / "manifest.json", output_dir=tmp_path)
    assert result.files["report"] == tmp_path / "report.md"
    assert main(["report", "--dir", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("# Run summary\n")
    assert out.encode("utf-8") == (tmp_path / "report.md").read_bytes()


def test_cli_report_needs_report_md(tmp_path, capsys):
    # The no-signalling document alone is not a report: report never renders one.
    (tmp_path / "nosignalling.json").write_text(json.dumps(_violated_nosignalling_doc()))
    assert main(["report", "--dir", str(tmp_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"no analysis artifacts found in {tmp_path}: {tmp_path / 'report.md'}" in err


def test_cli_report_rejects_a_report_that_is_not_utf8(tmp_path, capsys):
    (tmp_path / "report.md").write_bytes(b"# Run summary\n\xff\xfe\n")
    assert main(["report", "--dir", str(tmp_path)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert f"data error: {tmp_path / 'report.md'}: 'utf-8' codec" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_cli_missing_files_are_named_once(tmp_path, capsys):
    missing_dir = tmp_path / "nodir"
    assert main(["report", "--dir", str(missing_dir)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("no analysis artifacts found") == 1
    assert str(missing_dir / "report.md") in err

    manifest = tmp_path / "missing" / "manifest.json"
    assert main(["analyze", "--manifest", str(manifest)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(manifest) in err
    assert "analysis artifacts" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--alpha-level", "2"],
        ["analyze", "--window", "-5"],
        ["analyze", "--window", str(2**64)],
        ["simulate", "--jobs", "-3"],
    ],
    ids=["alpha-level", "window", "window-beyond-uint64", "jobs"],
)
def test_cli_rejects_bad_option_values_before_any_work(tmp_path, capsys, argv):
    # The input files do not exist: reading them would exit 3, not 2.
    inputs = {"analyze": "--manifest", "simulate": "--config"}
    argv = argv + [inputs[argv[0]], str(tmp_path / "absent.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert argv[1] in capsys.readouterr().err


@pytest.mark.parametrize("option, text, kwargs", [
    ("--window", "-1", {"window_ticks": -1}),
    ("--window", str(2**64), {"window_ticks": 2**64}),
    ("--window", "1.5", {"window_ticks": 1.5}),
    ("--alpha-level", "0", {"alpha_level": 0.0}),
    ("--alpha-level", "1", {"alpha_level": 1.0}),
    ("--alpha-level", "nan", {"alpha_level": math.nan}),
    ("--alpha-level", "inf", {"alpha_level": math.inf}),
])
def test_cli_and_library_refuse_the_same_analysis_values(tmp_path, capsys, option, text, kwargs):
    manifest = tmp_path / "absent" / "manifest.json"
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--manifest", str(manifest), option, text])
    assert exc.value.code == EXIT_CONFIG
    assert option in capsys.readouterr().err
    with pytest.raises(ValueError, match="window width|alpha_level"):
        analyze_run(manifest, **kwargs)


def _violated_nosignalling_doc() -> dict:
    """A hand-written nosignalling.json whose distant marginals are violated."""
    cosine = {
        "params": [0.5, 0.05, 0.0],
        "cov": [[1e-6, 0, 0], [0, 1e-6, 0], [0, 0, 1e-6]],
        "chi2": 18.0,
        "dof": 18,
        "f_stat": 40.0,
        "p_value": 1e-8,
        "amplitude": 0.05,
        "amplitude_sigma": 0.005,
    }
    flat = dict(cosine, params=[0.5], cov=[[1e-6]], amplitude=None, amplitude_sigma=None)
    marginals = {}
    for name in ("a_plus", "b_plus"):
        verdict = "violated" if name.startswith("b") else None
        marginals[name] = {
            "n_points": 21,
            "verdict": verdict,
            "fits": {"constant": flat, "cosine": dict(cosine)},
        }
    return {
        "schema_version": 3,
        "kind": "fairsample-nosignalling",
        "run": {"p": 1.0, "policy": "unfair_malus", "d": 0.5, "varied": "alice", "window_ticks": 250, "n_points": 21},
        "alpha_level": 0.01,
        "report": {
            "distant": "bob",
            "alpha_level": 0.01,
            "consistent": False,
            "marginals": marginals,
        },
        "fit_note": None,
        "skipped_points": [],
        "low_statistics_points": [],
    }


def test_report_rejected_phrasing():
    # A hand-written document with a violated verdict drives the headline
    # phrasing; the renderer needs no other context.
    text = _render_report(_violated_nosignalling_doc(), [])
    assert "fair sampling REJECTED at p<0.01" in text
    assert "b_plus" in text
