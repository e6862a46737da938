"""Golden digests of a whole run: simulate → analyze → report through the CLI.

Two small fixed configs run through ``cli.main``, and the sha256 of every
file written and of what the commands printed is pinned.  So a change that
alters one printed digit, the order of a table's columns or of a report's
fields fails here, not only in a comparison made by hand.  A manifest of
the data alone, written over the files of one of them, must give the same
tables and verdict.  A pin changes
only with a stated reason: a new sampler version, a new schema version or
a changed output format.

The digests hold per numpy version: NEP 19 lets a numpy release change
what a ``Generator`` draws for a given seed.
"""

import hashlib
import json
from pathlib import Path

import pytest

from fairsample import timetags
from fairsample.cli import EXIT_OK, main


def _doc(**overrides):
    doc = {
        "schema_version": 1,
        "source": {"p": 1.0},
        "efficiencies": {"a_plus": 0.3, "a_minus": 0.25, "b_plus": 0.3, "b_minus": 0.35},
        "policy": {"kind": "unfair_malus", "d": 0.5},
        "scan": {
            "varied": "alice",
            "angles_deg": [0.0, 30.0, 60.0, 90.0, 120.0, 150.0],
            "fixed_angle_deg": 0.0,
        },
        "pairs_per_point": 20_000,
        "pair_rate_hz": 10_000.0,
        "tick_resolution_ps": 1000,
        "jitter_sd_ticks": 20.0,
        "coincidence_window_ticks": 120,
        "dark_rate_hz": 1000.0,
        "seed": 2006,
    }
    doc.update(overrides)
    return doc


GOLDEN = {
    # The unfair arm with dark counts: about 9200 observed pairs a point in
    # slices of 2**12 observed pairs, so three slices, each with held-back
    # events.  A point expects 4000 dark counts per station, fewer than its
    # observed pairs, so the pairs alone set the number of slices.
    "unfair_dark": (
        _doc(),
        1 << 12,
        {
            "correlation.csv": "44ab544baab66310ca585a2812036ef6c07ab71025c63a850e504fdb212ad941",
            "counts.csv": "7beb15e6f0c837297e2d0a467b09fb4b4e98ff41e2d50d4e0be8c313bfae5728",
            "evenodd_standard.csv": "86216baf60b0b26bad0cebde99e7cdb82bbc07ea7ffdb2d0899ce433b76d8b13",
            "manifest.json": "cee4e292613e2659f5a212c4215a63e8cff14b36dd9a4b41afe7b9313955b5a7",
            "marginals_singles.csv": "36fca973e05b6de6b3642cceaf272f4daa122ae9f81b1523e82abdbcc3e662fc",
            "nosignalling.json": "7135154703c10a1c3b5d7252c81cbbeb74d637f50990bee9ee2d57f3e2a14f2f",
            "point_000_alice.ttg": "02c545055f049238f18f2422c8625ec3581b8129a7528917b1dcf553dadec74d",
            "point_000_bob.ttg": "94c657b26c16d5fb503cc748b4f0725c1c47dba1673542f24215ca4c6aefbef9",
            "point_001_alice.ttg": "b6ae9a0085ba87af6a06f8f1044d2dfcc4d5203f94f5fa9207cd77cef4ceafd9",
            "point_001_bob.ttg": "a7004969f6d8a0452ff2b53659b65e4067065ea155d610a8f57c444b07d92bc5",
            "point_002_alice.ttg": "98763b4ba6d51cc607924126206f026d09f9be1f6f7844de3146c6d0f9bbcadb",
            "point_002_bob.ttg": "5194f8a813c8e707279db292cdc3fe76f2a9d9c29ccd89fb6032268673f5efaa",
            "point_003_alice.ttg": "3d43b0fefcace89d550a4c3d4d6a0a9c8f4e98567ba33613d946a6e8ffc52591",
            "point_003_bob.ttg": "e44d3cf6b6b125cb627d92e9f422ac182f88fe00d312f316cea1efd4eeb207c1",
            "point_004_alice.ttg": "c4b2e47dd1b25d8e51a2575ed5e8eda431b6aa61b2393d3d190e8c2aae6ce3ce",
            "point_004_bob.ttg": "204bc0ec15fe0f9db02703873312042bdc579049fc0e52ac214727a7f4dcb5aa",
            "point_005_alice.ttg": "ede52eba48d8d030b4d35effc7309131e2db1ce955fc749511c71e34d231598e",
            "point_005_bob.ttg": "d5ed951937e752370d1213af10390de528a281b20be7121fcee58d0f4573d0b9",
            "report.md": "de9364e7b20c681016d3fec3f0aa13f8be0dcd80f451ff347490653bc340dcf5",
            "<stdout>": "51e4efb213e8d72de511e9b9b1c0c132b4fbee6564dbe56c021a559dd5f95aef",
            "<stderr>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
    ),
    # A fair arm of 150 pairs a point: point 2 has no estimates (all four
    # f-ratios are zero) and is skipped, and too few points are left for
    # the fits, so the report carries the fit note.
    "fair_sparse": (
        _doc(
            efficiencies={"a_plus": 0.1, "a_minus": 0.1, "b_plus": 0.1, "b_minus": 0.1},
            policy={"kind": "fair", "d": 0.0},
            scan={"varied": "bob", "angles_deg": [0.0, 36.0, 72.0, 108.0, 144.0],
                  "fixed_angle_deg": 22.5},
            pairs_per_point=150,
            jitter_sd_ticks=10.0,
            coincidence_window_ticks=60,
            dark_rate_hz=0.0,
            seed=3,
        ),
        timetags.BLOCK,
        {
            "correlation.csv": "ba040084f5c7672a6481494a62acc55f65735842ae20e7d5297aa93b006a7897",
            "counts.csv": "3bec333569fa017d0e03d4a1bbe88b56932e1ec05f91cef875e2303293f505d0",
            "evenodd_standard.csv": "e5184a89dae50e80639f832d5f0a8a754ecddd4f4ac1644e9f2fb2f9cf17f023",
            "manifest.json": "8d5c66936cc06ebb370c116ad760bd6ae3e3d3abf0836207827339a14526d76b",
            "marginals_singles.csv": "95c630ed30d823da3013b9edb03998b32e5ab3b1fa9b506c6af071c9d8e6b2c2",
            "nosignalling.json": "dc6593378c7966b591e1a31eaf7d30c06d84993e533a968c0a286419d636c27b",
            "point_000_alice.ttg": "e8f7ad6e552d743db62fa51cb36a539b807f2eaf4f1633be15b9bbf98c61df94",
            "point_000_bob.ttg": "84d1b3393c9c8acc4f38fd0a6deb2f1c4eb9f27d3cdca5b16847ccfbbf25cf1c",
            "point_001_alice.ttg": "7e5cc9572d27607e3b9690d9a74c896b2df97e268c857d6a11a643f4802788e3",
            "point_001_bob.ttg": "6a8b3d60653f0a762cc95dc5dd9e0884f652a3e3fa096c9ee36659fffa7a5ff0",
            "point_002_alice.ttg": "0ed177ff2b7d77ab63945bd073abc87900674b68db60e1782ed0da15bc4aa4a0",
            "point_002_bob.ttg": "6e5aead6809ae8f335c40df37a41fd58803b9c9fab8cd4a4b1c984ac9e59e5ee",
            "point_003_alice.ttg": "8fdf26fb40a44d2cc7a83647303089d4e43896fec93391493e6e9dbc11bacf16",
            "point_003_bob.ttg": "5a27a03a9b983d47d2b0b4596101e4fb9d71d84c641b88e434546dd5e6bbaa26",
            "point_004_alice.ttg": "96e6a93d4b8fc57927d51ea78d6f63892526c23323c4938280a3c7e84805402b",
            "point_004_bob.ttg": "f4142584f152a556de8c1626c33f851a7e8c78fd36519d9f7abc0a79b064b35c",
            "report.md": "a1bffe4bbfca8aebe5fa237c20adf9211c4862ae126cc8ee4d015963af9fb0a8",
            "<stdout>": "6c252cb4ea0e554d0daebc42f1025ed4e2c43d110ec0455f8ff2485be4705d6b",
            "<stderr>": "112544591dcc022690f4808599a03835e97237385bdd9168f5d4d74d8d1f9db1",
        },
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_run_writes_the_pinned_files_and_output(name, tmp_path, monkeypatch, capsys):
    doc, block, expected = GOLDEN[name]
    # Relative paths, so that what the commands print does not depend on
    # where the run lies.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(timetags, "BLOCK", block)
    Path("run.json").write_text(json.dumps(doc))
    for argv in (
        ["simulate", "--config", "run.json", "--output-dir", "run"],
        ["analyze", "--manifest", "run/manifest.json"],
        ["report", "--dir", "run"],
    ):
        assert main(argv) == EXIT_OK
    printed = capsys.readouterr()
    digests = {p.name: _sha256(p.read_bytes()) for p in sorted(Path("run").iterdir())}
    digests["<stdout>"] = _sha256(printed.out.encode())
    digests["<stderr>"] = _sha256(printed.err.encode())
    assert digests == expected


@pytest.mark.parametrize(
    "blocks", [("data", "points"), ("data", "model", "points")], ids=["data-only", "with-model"]
)
def test_a_manifest_of_the_data_alone_reproduces_the_run(blocks, tmp_path, monkeypatch):
    # Third-party time tags come with no simulation: written over the
    # unfair_dark run's own files, such a manifest gives its counts,
    # estimates and verdict byte for byte, and with a model its
    # correlation table too.
    doc, block, expected = GOLDEN["unfair_dark"]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(timetags, "BLOCK", block)
    Path("run.json").write_text(json.dumps(doc))
    run = Path("run")
    assert main(["simulate", "--config", "run.json", "--output-dir", "run"]) == EXIT_OK
    assert main(["analyze", "--manifest", "run/manifest.json"]) == EXIT_OK
    manifest = json.loads((run / "manifest.json").read_text())
    (run / "data.json").write_text(
        json.dumps({key: manifest[key] for key in ("schema_version", "kind") + blocks})
    )
    assert main(["analyze", "--manifest", "run/data.json", "--output-dir", "data"]) == EXIT_OK
    same = ["counts.csv", "evenodd_standard.csv", "marginals_singles.csv"]
    if "model" in blocks:
        same.append("correlation.csv")
    for name in same:
        assert _sha256((Path("data") / name).read_bytes()) == expected[name], name
    simulated, given = (
        json.loads((Path(where) / "nosignalling.json").read_bytes()) for where in ("run", "data")
    )
    assert _sha256((run / "nosignalling.json").read_bytes()) == expected["nosignalling.json"]
    p = manifest["model"]["p"] if "model" in blocks else None
    assert given.pop("run") == dict(simulated.pop("run"), p=p, policy=None, d=None)
    # The verdict, the p-values and every other fit figure.
    assert given == simulated
