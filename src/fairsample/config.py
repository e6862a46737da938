"""Run configuration: one JSON document, validated into typed objects.

Angles live in degrees here and in all emitted tables (that is the
convention experimenters read); they are converted to radians exactly
once, at the boundary into the physics code.

``json_field`` is the one reader of JSON fields: it serves the config,
run manifests and ``nosignalling.json``.  Its errors, like every
ConfigError, carry the JSON path of the offending field (e.g.
``source.p``, ``points[1].bob_file``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .coincidence import CoincidenceWindow
from .detection import EfficiencyConfig, PolicyKind, SamplingPolicy
from .quantum import SettingsPair, SourceState, Station
from .timetags import TimingError, check_timing

SCHEMA_VERSION = 1

STATION_NAMES = {"alice": Station.ALICE, "bob": Station.BOB}


class ConfigError(ValueError):
    """Invalid configuration; ``field`` is the JSON path of the problem."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


_JSON_TYPE_NAMES = {
    bool: "a boolean", int: "an integer", float: "a number", str: "a string",
    dict: "an object", list: "an array", type(None): "null",
}
# A JSON number: bool is an int subclass but never counts as one.
NUMBER = (int, float)
_REQUIRED = object()


def json_field(doc, key, kinds: "tuple | None" = None, where: str = "",
               default=_REQUIRED):
    """``doc[key]`` of a parsed JSON document, checked.

    ``doc`` must be an object, or an array where ``key`` is an index.  The
    value must be of one of the Python types ``kinds`` (any value when
    None); a boolean counts only where ``kinds`` names bool.  A missing
    key gives ``default`` when one is passed.  Anything else raises
    ConfigError named by the JSON path: ``where.key``, or ``where[key]``
    for an index (``where`` is empty at the root), and so does an integer
    of magnitude 2**1024 or more, which no float can hold.
    """
    container = list if isinstance(key, int) else dict
    if not isinstance(doc, container):
        expected = _JSON_TYPE_NAMES[container]
        raise ConfigError(where or "<root>", f"must be {expected}, got {doc!r}")
    if container is list:
        name, present = f"{where}[{key}]", 0 <= key < len(doc)
    else:
        name, present = f"{where}.{key}" if where else key, key in doc
    if not present:
        if default is not _REQUIRED:
            return default
        raise ConfigError(name, "missing required field")
    value = doc[key]
    if kinds is not None and (
        not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds)
    ):
        expected = " or ".join(_JSON_TYPE_NAMES[k] for k in kinds)
        raise ConfigError(name, f"must be {expected}, got {value!r}")
    if isinstance(value, int) and abs(value) >= 2**1024:
        raise ConfigError(name, "must be below 2**1024 in magnitude")
    return value


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
        for i, angle in enumerate(self.angles_deg):
            if not math.isfinite(angle):
                raise ConfigError(f"scan.angles_deg[{i}]", "must be finite")
        if not math.isfinite(self.fixed_angle_deg):
            raise ConfigError("scan.fixed_angle_deg", "must be finite")
        diffs = [
            b - a for a, b in zip(self.angles_deg, self.angles_deg[1:])
        ]
        if any(d <= 0 for d in diffs):
            raise ConfigError("scan.angles_deg", "must be strictly increasing")
        # The sampler's own check, its parameters named by their config fields.
        try:
            check_timing(
                self.pairs_per_point, self.pair_rate_hz, self.tick_resolution_ps,
                self.jitter_sd_ticks, self.dark_rate_hz,
            )
        except TimingError as exc:
            field = "pairs_per_point" if exc.name == "n_pairs_emitted" else exc.name
            raise ConfigError(field, exc.problem) from None
        try:
            CoincidenceWindow(self.coincidence_window_ticks)
        except ValueError as exc:
            raise ConfigError("coincidence_window_ticks", str(exc)) from None
        if self.seed < 0:
            raise ConfigError("seed", "must be >= 0")

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


def config_from_dict(doc: dict) -> RunConfig:
    """Build and validate a RunConfig from a parsed JSON document."""
    version = json_field(doc, "schema_version", (int,))
    if version != SCHEMA_VERSION:
        raise ConfigError(
            "schema_version", f"expected {SCHEMA_VERSION}, got {version!r}"
        )

    p = json_field(json_field(doc, "source", (dict,)), "p", NUMBER, "source")
    try:
        source = SourceState(p=p)
    except ValueError as exc:
        raise ConfigError("source.p", str(exc)) from None

    eff_doc = json_field(doc, "efficiencies", (dict,))
    etas = [
        json_field(eff_doc, key, NUMBER, "efficiencies")
        for key in ("a_plus", "a_minus", "b_plus", "b_minus")
    ]
    try:
        efficiencies = EfficiencyConfig(*etas)
    except ValueError as exc:
        raise ConfigError("efficiencies", str(exc)) from None

    policy_doc = json_field(doc, "policy", (dict,))
    kind_name = json_field(policy_doc, "kind", where="policy")
    try:
        kind = PolicyKind(kind_name)
    except ValueError:
        valid = ", ".join(k.value for k in PolicyKind)
        raise ConfigError("policy.kind", f"must be one of: {valid}") from None
    d = json_field(policy_doc, "d", NUMBER, "policy", default=0.0)
    try:
        policy = SamplingPolicy(kind=kind, d=d)
    except ValueError as exc:
        raise ConfigError("policy.d", str(exc)) from None

    scan_doc = json_field(doc, "scan", (dict,))
    varied_name = json_field(scan_doc, "varied", where="scan")
    if not isinstance(varied_name, str) or varied_name not in STATION_NAMES:
        raise ConfigError("scan.varied", "must be 'alice' or 'bob'")
    angles = json_field(scan_doc, "angles_deg", (list,), "scan")

    return RunConfig(
        source=source,
        efficiencies=efficiencies,
        policy=policy,
        varied=STATION_NAMES[varied_name],
        angles_deg=tuple(
            json_field(angles, i, NUMBER, "scan.angles_deg")
            for i in range(len(angles))
        ),
        fixed_angle_deg=json_field(scan_doc, "fixed_angle_deg", NUMBER, "scan"),
        pairs_per_point=json_field(doc, "pairs_per_point", (int,)),
        pair_rate_hz=json_field(doc, "pair_rate_hz", NUMBER),
        tick_resolution_ps=json_field(doc, "tick_resolution_ps", (int,)),
        jitter_sd_ticks=json_field(doc, "jitter_sd_ticks", NUMBER),
        coincidence_window_ticks=json_field(doc, "coincidence_window_ticks", (int,)),
        dark_rate_hz=json_field(doc, "dark_rate_hz", NUMBER, default=0.0),
        seed=json_field(doc, "seed", (int,)),
        output_dir=json_field(doc, "output_dir", (str, type(None)), default=None),
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError("<file>", f"invalid JSON: {exc}") from None
    return config_from_dict(doc)
