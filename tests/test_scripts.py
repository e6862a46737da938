"""Smoke tests for the scripts: they run and exit 0, nothing about speed."""

import importlib.util
from pathlib import Path

import pytest

from fairsample.detection import BlockCounts

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_coincidence_runs(capsys):
    bench = _load("benchmark_coincidence")
    argv = ["--events", "10000", "--repeats", "1", "--naive-events", "1000"]
    assert bench.main(argv) == 0
    out = capsys.readouterr().out
    assert "clusters > 2" in out and "events/s/core" in out
    assert "longest cluster" in out
    assert "engines agree     : yes, on 1,000/side" in out


def test_benchmark_coincidence_fails_when_the_engines_differ(capsys, monkeypatch):
    # A reference engine that finds nothing: the counts differ.
    bench = _load("benchmark_coincidence")
    monkeypatch.setattr(bench, "count_coincidences_naive", lambda *args: BlockCounts(*[0] * 8))
    argv = ["--events", "1000", "--repeats", "1", "--naive-events", "1000"]
    assert bench.main(argv) == 1
    assert "engines agree     : NO" in capsys.readouterr().out


def test_run_demo_runs(tmp_path, capsys):
    demo = _load("run_demo")
    argv = ["--output-dir", str(tmp_path), "--pairs", "20000", "--points", "7", "--jobs", "2"]
    assert demo.main(argv) == 0
    out = capsys.readouterr().out
    # One verdict line per arm; which verdict is a statistical matter.
    assert out.count("no-signalling verdict on distant marginals:") == 2


@pytest.mark.parametrize("jobs", ["0", "-2", "x"])
def test_run_demo_rejects_bad_jobs(tmp_path, capsys, jobs):
    demo = _load("run_demo")
    with pytest.raises(SystemExit) as exc:
        demo.main(["--output-dir", str(tmp_path / "demo"), "--jobs", jobs])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--jobs" in err
    if jobs != "x":
        assert "jobs must be an integer >= 1 or None" in err
    assert not (tmp_path / "demo").exists()
