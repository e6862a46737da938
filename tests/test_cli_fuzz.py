"""The CLI's exit-code contract under malformed inputs.

Configs, manifests and TTG1 files are mutated (truncated, bytes replaced,
JSON values swapped for other types or deleted) and fed to ``cli.main``;
manifests of schema 2 are also mutated within the blocks analysis reads
(``data``, ``model``, ``points``), and a manifest of schema 1 is refused.
Every run must end with a documented exit code (0, 2 or 3) and write
no traceback to stderr; ``analyze`` and ``report`` read data files only and
never exit 2, and ``simulate`` into a writable directory can meet a fault
in the config only, so it never exits 3.  JSON documents get one byte
replaced at most, so no number in the small base config can grow into a
run too large to make.
"""

import contextlib
import copy
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
import hypothesis.strategies as st

from fairsample.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main

BASE_CONFIG = {
    "schema_version": 1,
    "source": {"p": 1.0},
    "efficiencies": {"a_plus": 0.3, "a_minus": 0.3, "b_plus": 0.3, "b_minus": 0.3},
    "policy": {"kind": "unfair_malus", "d": 0.5},
    "scan": {"varied": "alice", "angles_deg": [0.0, 45.0, 90.0, 135.0], "fixed_angle_deg": 0.0},
    "pairs_per_point": 2000,
    "pair_rate_hz": 10000.0,
    "tick_resolution_ps": 1000,
    "jitter_sd_ticks": 20.0,
    "coincidence_window_ticks": 120,
    "dark_rate_hz": 50.0,
    "seed": 7,
}

EXIT_CODES = {0, 2, 3}

# Replacement values: every JSON type, the edges of the numbers, and names
# that point outside a run directory.
JSON_VALUES = st.sampled_from(
    [
        None, True, False, 0, 1, -1, 3, 0.5, -0.0, 1e-300, 2**63, 2**64 - 1, 2**64, 10**400,
        -10**400, math.nan, math.inf, -math.inf, "", "x", "alice", "bob", "fair",
        "../escape.ttg",
        [], [0.0], [90.0, 0.0], {}, {"p": 1.0},
    ]
)

FUZZ = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _paths(doc, prefix=()):
    """Every location in a JSON document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


@st.composite
def mutated_bytes(draw, data: bytes, max_replaced: int):
    """``data`` truncated, or with up to ``max_replaced`` bytes replaced."""
    if draw(st.booleans()):
        return data[: draw(st.integers(0, len(data) - 1))]
    out = bytearray(data)
    for _ in range(draw(st.integers(1, max_replaced))):
        out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
    return bytes(out)


@st.composite
def mutated_json(draw, doc, blocks=None):
    """``doc`` as JSON text with one byte-level or one value-level change.

    With ``blocks``, the change is to a value at or under one of those
    top-level keys.
    """
    if blocks is None and draw(st.booleans()):
        return draw(mutated_bytes(json.dumps(doc).encode(), max_replaced=1))
    doc = copy.deepcopy(doc)
    paths = [path for path in _paths(doc) if blocks is None or path[:1] in blocks]
    path = draw(st.sampled_from(paths))
    if not path:
        return json.dumps(draw(JSON_VALUES)).encode()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return json.dumps(doc).encode()


def _run(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in EXIT_CODES, (code, err.getvalue())
    assert "Traceback" not in err.getvalue(), err.getvalue()
    # analyze and report read data files only: any fault in them is a data error.
    assert code != EXIT_CONFIG or argv[0] == "simulate", err.getvalue()
    return code


def _analyze_and_report(manifest: Path) -> None:
    if _run(["analyze", "--manifest", str(manifest)]) == 0:
        _run(["report", "--dir", str(manifest.parent)])


@pytest.fixture(scope="module")
def base_run(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("fuzz_base")
    (root / "run.json").write_text(json.dumps(BASE_CONFIG))
    assert main(["simulate", "--config", str(root / "run.json"), "--output-dir", str(root / "run")]) == 0
    return root / "run"


@contextlib.contextmanager
def _copy_of(run_dir: Path):
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(shutil.copytree(run_dir, Path(tmp) / "run"))


@FUZZ
@given(data=mutated_json(BASE_CONFIG))
# Jitters that once passed the config and failed in generation, with exit
# 3: one whose reach no float64 event time holds, and -0.0, which numpy
# refused as a scale.
@example(data=json.dumps({**BASE_CONFIG, "jitter_sd_ticks": 2**63}).encode())
@example(data=json.dumps({**BASE_CONFIG, "jitter_sd_ticks": -0.0}).encode())
def test_mutated_config(data):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.json"
        config.write_bytes(data)
        out = Path(tmp) / "out"
        code = _run(["simulate", "--config", str(config), "--output-dir", str(out)])
        assert code in (EXIT_OK, EXIT_CONFIG)
        if code == EXIT_OK:
            _analyze_and_report(out / "manifest.json")


@FUZZ
@given(st.data())
def test_mutated_manifest(base_run, data):
    doc = json.loads((base_run / "manifest.json").read_text())
    with _copy_of(base_run) as run:
        (run / "manifest.json").write_bytes(data.draw(mutated_json(doc)))
        _analyze_and_report(run / "manifest.json")


@FUZZ
@given(st.data())
def test_mutated_analysis_blocks(base_run, data):
    # The blocks analysis reads, of a simulated manifest or of one that holds
    # the data alone, with or without the model; ``simulation`` is only echoed.
    doc = json.loads((base_run / "manifest.json").read_text())
    for key in data.draw(st.sets(st.sampled_from(["model", "simulation"]))):
        del doc[key]
    blocks = [(key,) for key in ("data", "model", "points") if key in doc]
    with _copy_of(base_run) as run:
        (run / "manifest.json").write_bytes(data.draw(mutated_json(doc, blocks)))
        _analyze_and_report(run / "manifest.json")


def test_schema_1_manifest_is_refused(base_run):
    # The layout before schema 2: a whole config, the RNG and the format
    # at the top level.
    doc = json.loads((base_run / "manifest.json").read_text())
    old = {"schema_version": 1, "kind": doc["kind"], **doc["simulation"], "points": doc["points"]}
    err = io.StringIO()
    with _copy_of(base_run) as run:
        (run / "manifest.json").write_text(json.dumps(old))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(["analyze", "--manifest", str(run / "manifest.json")]) == EXIT_DATA
        assert not (run / "counts.csv").exists()
    assert "unsupported manifest schema version 1, expected 2" in err.getvalue()
    assert "Traceback" not in err.getvalue()


@FUZZ
@given(st.data())
def test_mutated_ttg(base_run, data):
    victim = data.draw(st.sampled_from(sorted(p.name for p in base_run.glob("*.ttg"))))
    with _copy_of(base_run) as run:
        original = (run / victim).read_bytes()
        (run / victim).write_bytes(data.draw(mutated_bytes(original, max_replaced=4)))
        _analyze_and_report(run / "manifest.json")
