"""End-to-end run pipeline: simulate to TTG1, analyze, report, CLI contract."""

import json
import math

import numpy as np
import pytest

from fairsample.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, OUTPUT_DIR_ENV, main
from fairsample.config import config_from_dict, config_to_dict
from fairsample.detection import SAMPLER_NAME, SAMPLER_VERSION
from fairsample.pipeline import analyze_run, load_manifest, simulate_run, write_report
from fairsample.quantum import Station
from fairsample.timetags import make_stream, write_ttg

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
    doc, loaded_cfg, base, points = load_manifest(run_dir / "manifest.json")
    assert base == run_dir
    assert loaded_cfg == cfg
    assert doc["kind"] == "fairsample-run"
    assert doc["rng"]["algorithm"] == "PCG64"
    assert doc["rng"]["sampler"] == {"name": SAMPLER_NAME, "version": SAMPLER_VERSION}
    assert SAMPLER_VERSION == 2
    assert "geometric skips" in doc["rng"]["seeding"]
    assert "Gamma" in doc["rng"]["seeding"]
    assert doc["format"] == {"name": "TTG1", "version": 1}
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
    bad.write_text(json.dumps({"kind": "something-else", "schema_version": 1, "points": []}))
    with pytest.raises(ValueError, match="not a run manifest"):
        load_manifest(bad)
    bad.write_text(json.dumps({"kind": "fairsample-run", "schema_version": 1}))
    with pytest.raises(ValueError, match="point list"):
        load_manifest(bad)


# ---------------------------------------------------------------------------
# analyze_run artifacts
# ---------------------------------------------------------------------------


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
    assert result.nosignalling is not None
    assert result.nosignalling.consistent


def test_analysis_deterministic_across_jobs(fair_run, tmp_path):
    run_dir, _, result = fair_run
    again = analyze_run(run_dir / "manifest.json", output_dir=tmp_path, jobs=1)
    assert again.files["counts"].read_bytes() == result.files["counts"].read_bytes()
    assert again.files["correlation"].read_bytes() == result.files["correlation"].read_bytes()


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
    run_dir, _, _ = fair_run
    path = write_report(run_dir)
    text = path.read_text()
    assert "fair sampling consistent" in text
    assert "RMS deviation" in text
    assert "model CHSH" in text


# ---------------------------------------------------------------------------
# Separability: analysis consumes only the manifest plus TTG1 files
# ---------------------------------------------------------------------------


def test_analyze_hand_written_manifest(tmp_path):
    cfg = config_from_dict(small_doc(scan={
        "varied": "alice",
        "angles_deg": [0.0, 45.0, 90.0],
        "fixed_angle_deg": 0.0,
    }))
    points = []
    for i, alpha in enumerate([0.0, 45.0, 90.0]):
        t_a = np.array([1000 + 5000 * i], dtype=np.uint64)
        t_b = np.array([1030 + 5000 * i, 40_000_000 + i], dtype=np.uint64)
        a = make_stream(Station.ALICE, 1000, t_a, np.array([0], dtype=np.uint8), np.zeros(1, dtype=np.uint8))
        b = make_stream(Station.BOB, 1000, t_b, np.array([1, 1], dtype=np.uint8), np.zeros(2, dtype=np.uint8))
        names = (f"pt{i}_a.ttg", f"pt{i}_b.ttg")
        write_ttg(a, tmp_path / names[0])
        write_ttg(b, tmp_path / names[1])
        points.append(
            {
                "index": i,
                "alpha_deg": alpha,
                "beta_deg": 0.0,
                "alice_file": names[0],
                "bob_file": names[1],
                "n_pairs": 1,
            }
        )
    manifest = {
        "schema_version": 1,
        "kind": "fairsample-run",
        "config": config_to_dict(cfg),
        "rng": {"algorithm": "PCG64", "seeding": "external"},
        "format": {"name": "TTG1", "version": 1},
        "points": points,
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    result = analyze_run(path)
    for pt in result.scan.points:
        assert pt.counts.n_pm == 1
        assert pt.counts.s_b_minus == 2
    # One coincidence per point cannot support fits: noted, not fatal.
    assert result.fit_note is not None
    assert "insufficient points" in result.fit_note


# ---------------------------------------------------------------------------
# Empty runs
# ---------------------------------------------------------------------------


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
    report_text = write_report(tmp_path).read_text()
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


@pytest.mark.parametrize(
    "key, value",
    [("index", "0"), ("index", True), ("alpha_deg", "ten"), ("beta_deg", None),
     ("alice_file", 7), ("bob_file", "/x.ttg"), ("bob_file", ".")],
)
def test_load_manifest_rejects_malformed_points(tmp_path, key, value):
    path, doc = _simulated_manifest(tmp_path)
    doc["points"][1][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"points\[1\]\.{key}"):
        load_manifest(path)


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


def test_report_rejected_phrasing(tmp_path):
    # A doctored analysis directory with a violated verdict drives the
    # headline phrasing; the report renderer needs no other context.
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
    for name in ("a_plus", "a_minus", "b_plus", "b_minus"):
        verdict = "violated" if name.startswith("b") else None
        marginals[name] = {
            "n_points": 21,
            "verdict": verdict,
            "fits": {"constant": flat, "linear": dict(cosine), "cosine": dict(cosine)},
        }
    ns = {
        "schema_version": 1,
        "kind": "fairsample-nosignalling",
        "run": {"p": 1.0, "policy": "unfair_malus", "d": 0.5, "varied": "alice", "window_ticks": 250, "n_points": 21},
        "alpha_level": 0.01,
        "report": {
            "varied": "alice",
            "distant": "bob",
            "alpha_level": 0.01,
            "consistent": False,
            "n_points_used": 21,
            "n_points_skipped": 0,
            "marginals": marginals,
        },
        "fit_note": None,
        "skipped_points": [],
        "low_statistics_points": [],
    }
    (tmp_path / "nosignalling.json").write_text(json.dumps(ns))
    (tmp_path / "correlation.csv").write_text(
        "point,alpha_deg,beta_deg,corr_standard,sigma_standard,corr_singles,sigma_singles,corr_model\n"
    )
    text = write_report(tmp_path).read_text()
    assert "fair sampling REJECTED at p<0.01" in text
    assert "b_plus" in text
