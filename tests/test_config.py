"""Config document validation, path-tagged errors, and round-tripping."""

import dataclasses
import json
import math
import re

import pytest

from fairsample.config import (
    NUMBER,
    ConfigError,
    RunConfig,
    config_from_dict,
    config_to_dict,
    json_field,
    load_config,
)
from fairsample.detection import PolicyKind
from fairsample.quantum import Station


def good_doc():
    return {
        "schema_version": 1,
        "source": {"p": 1.0},
        "efficiencies": {"a_plus": 0.10, "a_minus": 0.05, "b_plus": 0.08, "b_minus": 0.08},
        "policy": {"kind": "fair", "d": 0.0},
        "scan": {
            "varied": "alice",
            "angles_deg": [0.0, 45.0, 90.0, 135.0, 180.0],
            "fixed_angle_deg": 0.0,
        },
        "pairs_per_point": 1000,
        "pair_rate_hz": 250.0,
        "tick_resolution_ps": 1000,
        "jitter_sd_ticks": 50.0,
        "coincidence_window_ticks": 250,
        "dark_rate_hz": 0.0,
        "seed": 42,
    }


def test_valid_document_parses():
    cfg = config_from_dict(good_doc())
    assert cfg.source.p == 1.0
    assert cfg.policy.kind == PolicyKind.FAIR
    assert cfg.varied == Station.ALICE
    assert cfg.angles_deg == (0.0, 45.0, 90.0, 135.0, 180.0)
    assert cfg.n_points == 5
    assert cfg.seed == 42
    assert cfg.output_dir is None


def test_round_trip_through_dict():
    cfg = config_from_dict(good_doc())
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_settings_for_point_converts_degrees():
    cfg = config_from_dict(good_doc())
    s = cfg.settings_for_point(1)
    assert s.alpha == pytest.approx(math.radians(45.0))
    assert s.beta == 0.0


def test_settings_for_point_varied_bob():
    doc = good_doc()
    doc["scan"]["varied"] = "bob"
    doc["scan"]["fixed_angle_deg"] = 30.0
    cfg = config_from_dict(doc)
    s = cfg.settings_for_point(2)
    assert s.alpha == pytest.approx(math.radians(30.0))
    assert s.beta == pytest.approx(math.radians(90.0))


def test_optional_fields_have_defaults():
    doc = good_doc()
    del doc["dark_rate_hz"]
    del doc["policy"]["d"]
    cfg = config_from_dict(doc)
    assert cfg.dark_rate_hz == 0.0
    assert cfg.policy.d == 0.0


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.pop("schema_version"), "schema_version"),
        (lambda d: d.update(schema_version=99), "schema_version"),
        # True == 1 == 1.0 in Python; a version is read as an integer.
        (lambda d: d.update(schema_version=True), "schema_version"),
        (lambda d: d.update(schema_version=1.0), "schema_version"),
        (lambda d: d.pop("source"), "source"),
        (lambda d: d.update(source=5), "source"),
        (lambda d: d["source"].update(p=1.5), "source.p"),
        (lambda d: d["source"].update(p="one"), "source.p"),
        (lambda d: d["efficiencies"].pop("b_minus"), "efficiencies.b_minus"),
        (lambda d: d["efficiencies"].update(a_plus=0.0), "efficiencies"),
        (lambda d: d["policy"].update(kind="bogus"), "policy.kind"),
        (lambda d: d["policy"].update(d=1.5), "policy.d"),
        (lambda d: d["scan"].update(varied="carol"), "scan.varied"),
        (lambda d: d["scan"].update(angles_deg="all"), "scan.angles_deg"),
        (lambda d: d["scan"].update(angles_deg=[0.0, "x"]), "scan.angles_deg[1]"),
        (lambda d: d["scan"].update(angles_deg=[]), "scan.angles_deg"),
        (lambda d: d["scan"].update(angles_deg=[0.0, 10.0, 10.0]), "scan.angles_deg"),
        (lambda d: d["scan"].update(angles_deg=[10.0, 0.0]), "scan.angles_deg"),
        (lambda d: d.update(pairs_per_point=True), "pairs_per_point"),
        (lambda d: d.update(pairs_per_point=-5), "pairs_per_point"),
        (lambda d: d.update(pairs_per_point=10.5), "pairs_per_point"),
        (lambda d: d.update(pair_rate_hz=0.0), "pair_rate_hz"),
        (lambda d: d.update(tick_resolution_ps=0), "tick_resolution_ps"),
        (lambda d: d.update(jitter_sd_ticks=-1.0), "jitter_sd_ticks"),
        (lambda d: d.update(coincidence_window_ticks=-1), "coincidence_window_ticks"),
        (lambda d: d.update(dark_rate_hz=-2.0), "dark_rate_hz"),
        (lambda d: d.pop("seed"), "seed"),
        (lambda d: d.update(output_dir=7), "output_dir"),
    ],
)
def test_field_errors_carry_json_path(mutate, field):
    doc = good_doc()
    mutate(doc)
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert err.value.field == field
    assert field in str(err.value)


def test_json_field_paths_and_defaults():
    doc = {"a": {"b": [1, 2.5, True]}}
    assert json_field(doc, "a", (dict,)) == {"b": [1, 2.5, True]}
    assert json_field(doc["a"]["b"], 1, NUMBER, "a.b") == 2.5
    assert json_field(doc["a"]["b"], 2, where="a.b") is True
    assert json_field(doc["a"], "c", NUMBER, "a", default=0.0) == 0.0
    for args, message in [
        ((doc, "x"), "x: missing required field"),
        ((doc["a"], "c", NUMBER, "a"), "a.c: missing required field"),
        ((doc["a"]["b"], 2, NUMBER, "a.b"), "a.b[2]: must be an integer or a number, got True"),
        ((doc["a"]["b"], 3, NUMBER, "a.b"), "a.b[3]: missing required field"),
        ((doc["a"], "b", (str, type(None)), "a"), "a.b: must be a string or null"),
        ((doc["a"]["b"], "k", None, "a.b"), "a.b: must be an object, got [1, 2.5, True]"),
        (([], "k"), "<root>: must be an object"),
    ]:
        with pytest.raises(ConfigError, match=re.escape(message)):
            json_field(*args)


def test_non_object_root_rejected():
    with pytest.raises(ConfigError):
        config_from_dict([1, 2, 3])


def test_zero_pairs_is_allowed():
    doc = good_doc()
    doc["pairs_per_point"] = 0
    assert config_from_dict(doc).pairs_per_point == 0


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(good_doc()))
    cfg = load_config(path)
    assert cfg == config_from_dict(good_doc())


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path / "nope.json")
    assert err.value.field == "<file>"


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


def test_load_config_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(good_doc()).replace("alice", "alïce").encode("latin-1"))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.field == "<file>"


@pytest.mark.parametrize(
    "mutate, field",
    [
        # An unhashable value must not reach the name lookup.
        (lambda d: d["scan"].update(varied=[]), "scan.varied"),
        # Fields checked against a set of names take any JSON value.
        (lambda d: d["scan"].update(varied=True), "scan.varied"),
        (lambda d: d["policy"].update(kind=True), "policy.kind"),
        # Tick resolutions and windows are stored and compared as uint64.
        (lambda d: d.update(tick_resolution_ps=2**64), "tick_resolution_ps"),
        (lambda d: d.update(coincidence_window_ticks=2**64), "coincidence_window_ticks"),
        # SeedSequence takes non-negative entropy only.
        (lambda d: d.update(seed=-1), "seed"),
        # A NaN rate compares False with everything; it is the rate's fault,
        # not that of the dark-count bound computed from it.
        (lambda d: d.update(pair_rate_hz=math.nan), "pair_rate_hz"),
        # An infinite rate would put every emission time at 0.
        (lambda d: d.update(pair_rate_hz=math.inf), "pair_rate_hz"),
        # Jitter that is not finite makes every event time NaN or infinite.
        (lambda d: d.update(jitter_sd_ticks=math.nan), "jitter_sd_ticks"),
        (lambda d: d.update(jitter_sd_ticks=math.inf), "jitter_sd_ticks"),
        # A jitter whose hold-back reach passes 2**53 ticks: float64 event
        # times would lose whole ticks.
        (lambda d: d.update(jitter_sd_ticks=2**63), "jitter_sd_ticks"),
        # Angles that are not finite make the model probabilities NaN.
        (lambda d: d["scan"]["angles_deg"].__setitem__(1, math.nan), "scan.angles_deg[1]"),
        (lambda d: d["scan"]["angles_deg"].__setitem__(4, math.inf), "scan.angles_deg[4]"),
        (lambda d: d["scan"].update(fixed_angle_deg=math.nan), "scan.fixed_angle_deg"),
        (lambda d: d["scan"].update(fixed_angle_deg=math.inf), "scan.fixed_angle_deg"),
        # JSON integers beyond float range overflow the first float operation.
        (lambda d: d.update(pairs_per_point=10**400), "pairs_per_point"),
        (lambda d: d.update(pair_rate_hz=10**400), "pair_rate_hz"),
        (lambda d: d.update(dark_rate_hz=10**400), "dark_rate_hz"),
        (lambda d: d.update(jitter_sd_ticks=10**400), "jitter_sd_ticks"),
        (lambda d: d["scan"]["angles_deg"].__setitem__(2, 10**400), "scan.angles_deg[2]"),
        (lambda d: d["scan"].update(fixed_angle_deg=10**400), "scan.fixed_angle_deg"),
        (lambda d: d["scan"].update(fixed_angle_deg=-10**400), "scan.fixed_angle_deg"),
        # A seed is refused at the same bound as every other JSON integer.
        (lambda d: d.update(seed=2**1024), "seed"),
    ],
    ids=[
        "varied-list",
        "varied-true",
        "kind-true",
        "tick-2**64",
        "window-2**64",
        "seed-negative",
        "pair-rate-nan",
        "pair-rate-inf",
        "jitter-nan",
        "jitter-inf",
        "jitter-2**63",
        "angle-nan",
        "angle-inf",
        "fixed-angle-nan",
        "fixed-angle-inf",
        "pairs-10**400",
        "pair-rate-10**400",
        "dark-rate-10**400",
        "jitter-10**400",
        "angle-10**400",
        "fixed-angle-10**400",
        "fixed-angle-minus-10**400",
        "seed-2**1024",
    ],
)
def test_values_the_pipeline_cannot_take_are_config_errors(mutate, field):
    doc = good_doc()
    mutate(doc)
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert err.value.field == field


def test_direct_construction_validates_too():
    cfg = config_from_dict(good_doc())
    with pytest.raises(ConfigError):
        RunConfig(
            source=cfg.source,
            efficiencies=cfg.efficiencies,
            policy=cfg.policy,
            varied=cfg.varied,
            angles_deg=(10.0, 5.0),
            fixed_angle_deg=0.0,
            pairs_per_point=10,
            pair_rate_hz=250.0,
            tick_resolution_ps=1000,
            jitter_sd_ticks=0.0,
            coincidence_window_ticks=100,
            dark_rate_hz=0.0,
            seed=1,
        )


@pytest.mark.parametrize("width", [-1, 1.5, True, 2**64])
def test_direct_construction_refuses_the_windows_the_matcher_refuses(width):
    cfg = config_from_dict(good_doc())
    with pytest.raises(ConfigError) as err:
        dataclasses.replace(cfg, coincidence_window_ticks=width)
    assert err.value.field == "coincidence_window_ticks"
    assert "window width must be an integer in 0..2**64 - 1" in str(err.value)


def test_emission_clock_bound():
    # 1 ns ticks at 1 kHz: 10^6 ticks per pair, so the bound of 2^53 ticks
    # (9007199254740992) falls between these two pair counts.
    doc = good_doc()
    doc["tick_resolution_ps"] = 1000
    doc["pair_rate_hz"] = 1000.0
    doc["pairs_per_point"] = 9_007_199_254
    assert config_from_dict(doc).pairs_per_point == 9_007_199_254
    doc["pairs_per_point"] = 9_007_199_255
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert err.value.field == "pairs_per_point"
    assert "2**53" in str(err.value)


def test_dark_count_bound():
    # 1000 pairs at 250 Hz last 4 s, so 2 * rate * 4 s of dark counts per
    # station reach the bound of 2**32 at a rate of exactly 2**29 Hz.
    doc = good_doc()
    doc["dark_rate_hz"] = 2.0**29
    assert config_from_dict(doc).dark_rate_hz == 2.0**29
    for rate in (2.0**29 + 1, 2.0**63, math.inf, math.nan):
        doc["dark_rate_hz"] = rate
        with pytest.raises(ConfigError) as err:
            config_from_dict(doc)
        assert err.value.field == "dark_rate_hz"
    # With no pairs a point lasts no time and needs no dark counts.
    doc["pairs_per_point"] = 0
    doc["dark_rate_hz"] = 2.0**63
    assert config_from_dict(doc).dark_rate_hz == 2.0**63
