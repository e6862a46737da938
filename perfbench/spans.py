"""In-memory span tracer installed around fairsample's public functions.

The tracer replaces each traced function with a wrapper in every loaded
``fairsample`` module that holds it under its own name, so a call is seen
wherever the caller looks the function up (``pipeline`` imports its
helpers into its own namespace, ``cli`` imports the pipeline stages).
Nothing under ``src/`` is edited; ``uninstall`` puts the originals back.

A span records name, start, end, parent span and thread id.  A span
started on a pool thread with nothing open on that thread takes as parent
the innermost span open on the installing thread, which is the stage that
submitted the work and is blocked waiting for it.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from dataclasses import dataclass, field

# (module, function) pairs that form the traced layers.
TRACED = (
    ("detection", "simulate_pair_detections"),
    ("detection", "simulate_block"),
    ("timetags", "generate_streams"),
    ("timetags", "write_ttg"),
    ("timetags", "read_ttg"),
    ("coincidence", "count_coincidences"),
    ("estimator", "estimate_block"),
    ("fits", "nosignalling_stats"),
    ("pipeline", "simulate_run"),
    ("pipeline", "analyze_run"),
    ("pipeline", "write_report"),
    ("cli", "main"),
    ("config", "load_config"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    thread: int
    error: "str | None" = None
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count(name: str, bound: inspect.BoundArguments, result) -> dict:
    """Work counters taken at the layer boundary, from arguments and result."""
    a = bound.arguments
    if name in ("detection.simulate_pair_detections", "detection.simulate_block"):
        return {"pairs": int(a["n_pairs"])}
    if name == "timetags.write_ttg":
        return {"bytes": int(result)}
    if name == "timetags.read_ttg":
        return {"bytes": 24 + 9 * len(result)}
    if name == "coincidence.count_coincidences":
        return {
            "events": len(a["stream_a"]) + len(a["stream_b"]),
            "coincidences": int(result.total_coincidences),
        }
    if name in ("pipeline.simulate_run", "pipeline.analyze_run"):
        jobs = a.get("jobs")
        return {"jobs": jobs if jobs and jobs > 0 else 1}
    return {}


class Tracer:
    """Collects spans from wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stacks: dict[int, list[int]] = {}
        self._next_id = 0
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            tid = threading.get_ident()
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
                stack = tracer._stacks.setdefault(tid, [])
                if stack:
                    parent = stack[-1]
                else:
                    main = tracer._stacks.get(tracer._main)
                    parent = main[-1] if main and tid != tracer._main else None
                stack.append(span_id)
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = {}
                if error is None:
                    counts = _count(name, sig.bind(*args, **kwargs), result)
                tracer.spans.append(
                    Span(span_id, name, start, end, parent, tid, error, counts)
                )

        return traced

    def install(self) -> None:
        """Wrap every traced function at each place it is looked up."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "fairsample" or name.startswith("fairsample."))
        }
        for mod_name, fn_name in TRACED:
            home = modules.get(f"fairsample.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:  # not in this version: its metrics read 0
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules.values():
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    self._patched.append((mod, fn_name, original))

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its child spans cover."""
    clipped = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    ]
    return span.duration - _covered(clipped)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    A layer that did not run reports 0 for its times, counts and rates.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def busy(name):
        return sum(s.duration for s in named(name))

    def outer(layer):
        """Spans of a layer not nested inside another span of that layer."""
        return [
            s for s in spans
            if s.layer == layer
            and (s.parent is None or by_id[s.parent].layer != layer)
        ]

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in named(name))

    det = outer("detection")
    det_pairs = sum(s.counts.get("pairs", 0) for s in det)
    det_busy = sum(s.duration for s in det)
    written = total("timetags.write_ttg", "bytes")
    read = total("timetags.read_ttg", "bytes")
    m = {
        "detection.simulate_pair_detections.busy_s": busy("detection.simulate_pair_detections"),
        "detection.simulate_block.busy_s": busy("detection.simulate_block"),
        "detection.pairs_per_s": _ratio(det_pairs, det_busy),
        "timetags.generate_streams.busy_s": busy("timetags.generate_streams"),
        "timetags.write_ttg.busy_s": busy("timetags.write_ttg"),
        "timetags.read_ttg.busy_s": busy("timetags.read_ttg"),
        "timetags.bytes": float(written),
        "timetags.write_mb_per_s": _ratio(written / 1e6, busy("timetags.write_ttg")),
        "timetags.read_mb_per_s": _ratio(read / 1e6, busy("timetags.read_ttg")),
        "coincidence.count_coincidences.busy_s": busy("coincidence.count_coincidences"),
        "coincidence.events_per_s": _ratio(
            total("coincidence.count_coincidences", "events"),
            busy("coincidence.count_coincidences"),
        ),
        "coincidence.coincidences": float(
            total("coincidence.count_coincidences", "coincidences")
        ),
        "estimator.estimate_block.busy_s": busy("estimator.estimate_block"),
        "estimator.skipped_points": float(
            sum(1 for s in named("estimator.estimate_block") if s.error)
        ),
        "fits.nosignalling_stats.busy_s": busy("fits.nosignalling_stats"),
        "pipeline.write_report.busy_s": busy("pipeline.write_report"),
        "config.load_config.busy_s": busy("config.load_config"),
        "cli.main.self_s": sum(
            self_time(s, children.get(s.id, [])) for s in named("cli.main")
        ),
    }
    for stage in ("simulate_run", "analyze_run"):
        stage_spans = named(f"pipeline.{stage}")
        m[f"pipeline.{stage}.self_s"] = sum(
            self_time(s, children.get(s.id, [])) for s in stage_spans
        )
        child_busy = sum(
            c.duration for s in stage_spans for c in children.get(s.id, [])
        )
        capacity = sum(s.counts.get("jobs", 1) * s.duration for s in stage_spans)
        m[f"pipeline.{stage}.parallel_eff"] = _ratio(child_busy, capacity)
    return m
