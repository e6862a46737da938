"""Run configuration: one JSON document, validated into typed objects.

Angles live in degrees here and in all emitted tables (that is the
convention experimenters read); they are converted to radians exactly
once, at the boundary into the physics code.  Error messages carry the
JSON path of the offending field (e.g. ``source.p``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .detection import EfficiencyConfig, PolicyKind, SamplingPolicy
from .quantum import SettingsPair, SourceState, Station

SCHEMA_VERSION = 1

# Emission times are float64 sums; past 2**53 ticks they lose whole ticks.
MAX_EMISSION_CLOCK_TICKS = 2.0**53

_STATION_NAMES = {"alice": Station.ALICE, "bob": Station.BOB}


class ConfigError(ValueError):
    """Invalid configuration; ``field`` is the JSON path of the problem."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation run needs, plus analysis defaults."""

    source: SourceState
    efficiencies: EfficiencyConfig
    policy: SamplingPolicy
    varied: Station
    angles_deg: tuple[float, ...]
    fixed_angle_deg: float
    pairs_per_point: int
    pair_rate_hz: float
    tick_resolution_ps: int
    jitter_sd_ticks: float
    coincidence_window_ticks: int
    dark_rate_hz: float
    seed: int
    output_dir: "str | None" = None

    def __post_init__(self) -> None:
        if not self.angles_deg:
            raise ConfigError("scan.angles_deg", "must be non-empty")
        diffs = [
            b - a for a, b in zip(self.angles_deg, self.angles_deg[1:])
        ]
        if any(d <= 0 for d in diffs):
            raise ConfigError("scan.angles_deg", "must be strictly increasing")
        if self.pairs_per_point < 0:
            raise ConfigError("pairs_per_point", "must be >= 0")
        if self.pair_rate_hz <= 0:
            raise ConfigError("pair_rate_hz", "must be > 0")
        if self.tick_resolution_ps <= 0:
            raise ConfigError("tick_resolution_ps", "must be > 0")
        clock_ticks = (
            self.pairs_per_point / self.pair_rate_hz * (1e12 / self.tick_resolution_ps)
        )
        if clock_ticks > MAX_EMISSION_CLOCK_TICKS:
            raise ConfigError(
                "pairs_per_point",
                f"a point lasts {clock_ticks:.6g} ticks at this pair rate and "
                "tick resolution; emission times stay exact only up to 2**53 ticks",
            )
        if self.jitter_sd_ticks < 0:
            raise ConfigError("jitter_sd_ticks", "must be >= 0")
        if self.coincidence_window_ticks < 0:
            raise ConfigError("coincidence_window_ticks", "must be >= 0")
        if self.dark_rate_hz < 0:
            raise ConfigError("dark_rate_hz", "must be >= 0")

    @property
    def n_points(self) -> int:
        return len(self.angles_deg)

    def settings_for_point(self, index: int) -> SettingsPair:
        """Analyzer angles (radians) at one scan point."""
        varied_rad = math.radians(self.angles_deg[index])
        fixed_rad = math.radians(self.fixed_angle_deg)
        if self.varied == Station.ALICE:
            return SettingsPair(alpha=varied_rad, beta=fixed_rad)
        return SettingsPair(alpha=fixed_rad, beta=varied_rad)


def _require(doc: dict, field: str, path: str):
    if not isinstance(doc, dict):
        raise ConfigError(path.rsplit(".", 1)[0], "must be a JSON object")
    if field not in doc:
        raise ConfigError(path, "missing required field")
    return doc[field]


def _number(value, path: str, *, integer: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"must be a number, got {value!r}")
    if integer and not isinstance(value, int):
        raise ConfigError(path, f"must be an integer, got {value!r}")
    return value


def config_from_dict(doc: dict) -> RunConfig:
    """Build and validate a RunConfig from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    version = _require(doc, "schema_version", "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            "schema_version", f"expected {SCHEMA_VERSION}, got {version!r}"
        )

    source_doc = _require(doc, "source", "source")
    try:
        source = SourceState(p=_number(_require(source_doc, "p", "source.p"), "source.p"))
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("source.p", str(exc)) from None

    eff_doc = _require(doc, "efficiencies", "efficiencies")
    eff_values = {}
    for key in ("a_plus", "a_minus", "b_plus", "b_minus"):
        eff_values[key] = _number(
            _require(eff_doc, key, f"efficiencies.{key}"), f"efficiencies.{key}"
        )
    try:
        efficiencies = EfficiencyConfig(
            eta_a_plus=eff_values["a_plus"],
            eta_a_minus=eff_values["a_minus"],
            eta_b_plus=eff_values["b_plus"],
            eta_b_minus=eff_values["b_minus"],
        )
    except ValueError as exc:
        raise ConfigError("efficiencies", str(exc)) from None

    policy_doc = _require(doc, "policy", "policy")
    kind_name = _require(policy_doc, "kind", "policy.kind")
    try:
        kind = PolicyKind(kind_name)
    except ValueError:
        valid = ", ".join(k.value for k in PolicyKind)
        raise ConfigError("policy.kind", f"must be one of: {valid}") from None
    d = _number(policy_doc.get("d", 0.0), "policy.d")
    try:
        policy = SamplingPolicy(kind=kind, d=d)
    except ValueError as exc:
        raise ConfigError("policy.d", str(exc)) from None

    scan_doc = _require(doc, "scan", "scan")
    varied_name = _require(scan_doc, "varied", "scan.varied")
    if varied_name not in _STATION_NAMES:
        raise ConfigError("scan.varied", "must be 'alice' or 'bob'")
    angles = _require(scan_doc, "angles_deg", "scan.angles_deg")
    if not isinstance(angles, list):
        raise ConfigError("scan.angles_deg", "must be a list of numbers")
    angles_deg = tuple(
        _number(a, f"scan.angles_deg[{i}]") for i, a in enumerate(angles)
    )
    fixed = _number(
        _require(scan_doc, "fixed_angle_deg", "scan.fixed_angle_deg"),
        "scan.fixed_angle_deg",
    )

    output_dir = doc.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir", "must be a string path")

    return RunConfig(
        source=source,
        efficiencies=efficiencies,
        policy=policy,
        varied=_STATION_NAMES[varied_name],
        angles_deg=angles_deg,
        fixed_angle_deg=fixed,
        pairs_per_point=int(
            _number(
                _require(doc, "pairs_per_point", "pairs_per_point"),
                "pairs_per_point",
                integer=True,
            )
        ),
        pair_rate_hz=_number(
            _require(doc, "pair_rate_hz", "pair_rate_hz"), "pair_rate_hz"
        ),
        tick_resolution_ps=int(
            _number(
                _require(doc, "tick_resolution_ps", "tick_resolution_ps"),
                "tick_resolution_ps",
                integer=True,
            )
        ),
        jitter_sd_ticks=_number(
            _require(doc, "jitter_sd_ticks", "jitter_sd_ticks"), "jitter_sd_ticks"
        ),
        coincidence_window_ticks=int(
            _number(
                _require(doc, "coincidence_window_ticks", "coincidence_window_ticks"),
                "coincidence_window_ticks",
                integer=True,
            )
        ),
        dark_rate_hz=_number(doc.get("dark_rate_hz", 0.0), "dark_rate_hz"),
        seed=int(_number(_require(doc, "seed", "seed"), "seed", integer=True)),
        output_dir=output_dir,
    )


def config_to_dict(cfg: RunConfig) -> dict:
    """Inverse of config_from_dict, used to echo the config into manifests."""
    return {
        "schema_version": SCHEMA_VERSION,
        "source": {"p": cfg.source.p},
        "efficiencies": {
            "a_plus": cfg.efficiencies.eta_a_plus,
            "a_minus": cfg.efficiencies.eta_a_minus,
            "b_plus": cfg.efficiencies.eta_b_plus,
            "b_minus": cfg.efficiencies.eta_b_minus,
        },
        "policy": {"kind": cfg.policy.kind.value, "d": cfg.policy.d},
        "scan": {
            "varied": "alice" if cfg.varied == Station.ALICE else "bob",
            "angles_deg": list(cfg.angles_deg),
            "fixed_angle_deg": cfg.fixed_angle_deg,
        },
        "pairs_per_point": cfg.pairs_per_point,
        "pair_rate_hz": cfg.pair_rate_hz,
        "tick_resolution_ps": cfg.tick_resolution_ps,
        "jitter_sd_ticks": cfg.jitter_sd_ticks,
        "coincidence_window_ticks": cfg.coincidence_window_ticks,
        "dark_rate_hz": cfg.dark_rate_hz,
        "seed": cfg.seed,
        "output_dir": cfg.output_dir,
    }


def load_config(path) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON: {exc}") from None
    return config_from_dict(doc)
