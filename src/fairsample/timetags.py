"""Time-tagged event streams and the TTG1 binary file format.

Event generation turns the observed pairs of a block into two per-station
streams of (timestamp, sign, setting) records: pair emission times follow
an exponential-gap (Poissonian) process, each detected photon gets
independent Gaussian timing jitter, and optional dark counts are
superimposed as a uniform Poisson background with random signs.

The TTG1 format is this project's own container for such streams:

    header, 24 bytes, little-endian:
        0   magic           4 bytes  b"TTG1"
        4   version         u8       1
        5   station         u8       0 = Alice, 1 = Bob
        6   reserved        u16      must be 0
        8   tick_resolution u64      picoseconds per tick, > 0
        16  event_count     u64
    records, 9 bytes each, little-endian, timestamps non-decreasing:
        0   t               u64      ticks
        8   flags           u8       bit 0: sign (0 Plus / 1 Minus)
                                     bits 1-2: setting index (0-3)
                                     bits 3-7: reserved, must be 0

Readers reject unknown magic/version, non-zero reserved fields, a zero
tick resolution, out-of-order timestamps, truncated files and trailing
bytes, each with a byte offset pointing at the problem.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detection import PairDetections
from .quantum import Station

MAGIC = b"TTG1"
VERSION = 1
HEADER = struct.Struct("<4sBBHQQ")
RECORD_DTYPE = np.dtype([("t", "<u8"), ("flags", "u1")])
assert HEADER.size == 24
assert RECORD_DTYPE.itemsize == 9

_SIGN_BIT = 0x01
_SETTING_SHIFT = 1
_SETTING_MASK = 0x06
_RESERVED_MASK = 0xF8


class TtgFormatError(ValueError):
    """A TTG1 file violates the format; ``offset`` is the offending byte."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class BadMagic(TtgFormatError):
    pass


class UnsupportedVersion(TtgFormatError):
    pass


class TruncatedFile(TtgFormatError):
    pass


class UnsortedTimestamps(TtgFormatError):
    pass


class InvalidFlags(TtgFormatError):
    pass


class TrailingData(TtgFormatError):
    pass


@dataclass(frozen=True)
class TimetagEvent:
    """One detection record, as stored in a TTG1 file."""

    t: int
    sign: int
    setting_index: int

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")
        if self.sign not in (0, 1):
            raise ValueError(f"sign must be 0 or 1, got {self.sign}")
        if not (0 <= self.setting_index <= 3):
            raise ValueError(f"setting_index must be in 0..3, got {self.setting_index}")


@dataclass(frozen=True)
class EventStream:
    """One station's detections: parallel arrays sorted by timestamp.

    Ties in ``t`` are ordered Plus before Minus so that downstream
    matching is deterministic.  ``tick_resolution_ps`` is the physical
    duration of one timestamp tick.
    """

    station: Station
    tick_resolution_ps: int
    t: np.ndarray
    sign: np.ndarray
    setting_index: np.ndarray

    def __post_init__(self) -> None:
        if self.tick_resolution_ps <= 0:
            raise ValueError(
                f"tick_resolution_ps must be > 0, got {self.tick_resolution_ps}"
            )
        n = self.t.shape[0]
        if self.sign.shape[0] != n or self.setting_index.shape[0] != n:
            raise ValueError("t, sign and setting_index must have equal length")
        if self.t.dtype != np.uint64:
            raise ValueError(f"t must be uint64, got {self.t.dtype}")
        if n:
            if np.any(self.t[1:] < self.t[:-1]):
                raise ValueError("timestamps must be non-decreasing")
            ties = self.t[1:] == self.t[:-1]
            if np.any(ties & (self.sign[1:] < self.sign[:-1])):
                raise ValueError("equal timestamps must order Plus before Minus")
            if np.any((self.sign != 0) & (self.sign != 1)):
                raise ValueError("sign entries must be 0 or 1")
            if np.any((self.setting_index < 0) | (self.setting_index > 3)):
                raise ValueError("setting_index entries must be in 0..3")

    def __len__(self) -> int:
        return self.t.shape[0]

    def __getitem__(self, i: int) -> TimetagEvent:
        return TimetagEvent(
            t=int(self.t[i]), sign=int(self.sign[i]), setting_index=int(self.setting_index[i])
        )


def make_stream(
    station: Station,
    tick_resolution_ps: int,
    t: np.ndarray,
    sign: np.ndarray,
    setting_index: np.ndarray,
) -> EventStream:
    """Build an EventStream, sorting by (t, sign) with a stable sort."""
    order = np.lexsort((sign, t))
    return EventStream(
        station=station,
        tick_resolution_ps=tick_resolution_ps,
        t=t[order].astype(np.uint64, copy=False),
        sign=np.ascontiguousarray(sign[order], dtype=np.uint8),
        setting_index=np.ascontiguousarray(setting_index[order], dtype=np.uint8),
    )


def generate_streams(
    det: PairDetections,
    pair_rate_hz: float,
    tick_resolution_ps: int,
    jitter_sd_ticks: float,
    seed,
    setting_index: int = 0,
    dark_rate_hz: float = 0.0,
) -> tuple[EventStream, EventStream]:
    """Expand the observed pairs of a block into two time-tagged streams.

    Pair emission times are an exponential-gap process at ``pair_rate_hz``.
    Only the observed pairs get a time: pair i is emitted after i + 1
    exponential gaps, so between consecutive observed pairs the time grows
    by a Gamma(index step, mean gap) increment, which is exact.  Each
    detected photon's timestamp is the emission tick plus Gaussian jitter
    (rounded, clamped at zero).  Dark counts, if enabled, arrive uniformly
    over the nominal duration n_pairs / pair_rate_hz on each channel
    independently at ``dark_rate_hz`` per channel.
    """
    if pair_rate_hz <= 0.0:
        raise ValueError(f"pair_rate_hz must be > 0, got {pair_rate_hz}")
    if tick_resolution_ps <= 0:
        raise ValueError(f"tick_resolution_ps must be > 0, got {tick_resolution_ps}")
    if jitter_sd_ticks < 0.0:
        raise ValueError(f"jitter_sd_ticks must be >= 0, got {jitter_sd_ticks}")
    if dark_rate_hz < 0.0:
        raise ValueError(f"dark_rate_hz must be >= 0, got {dark_rate_hz}")
    if isinstance(seed, np.random.SeedSequence):
        rng = np.random.default_rng(seed)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))

    n = det.n_pairs
    ticks_per_second = 1e12 / tick_resolution_ps
    mean_gap_ticks = ticks_per_second / pair_rate_hz
    # Arrays are updated in place and dropped as soon as they are spent, so
    # a point holds few full-size arrays at once.
    emission = rng.gamma(np.diff(det.index, prepend=-1), mean_gap_ticks)
    np.cumsum(emission, out=emission)
    hits = []
    for detected, sign in ((det.detected_a, det.sign_a), (det.detected_b, det.sign_b)):
        t = emission[detected]
        t += rng.normal(0.0, jitter_sd_ticks, t.shape[0])
        np.rint(t, out=t)
        np.maximum(t, 0.0, out=t)
        hits.append((t.astype(np.uint64), sign[detected].astype(np.uint8)))
    del emission

    duration_ticks = n / pair_rate_hz * ticks_per_second
    streams = []
    for station in (Station.ALICE, Station.BOB):
        t, sign = hits.pop(0)
        if dark_rate_hz > 0.0:
            n_dark = rng.poisson(2.0 * dark_rate_hz * n / pair_rate_hz)
            t_dark = rng.uniform(0.0, duration_ticks, n_dark).astype(np.uint64)
            sign_dark = rng.integers(0, 2, n_dark).astype(np.uint8)
            t = np.concatenate([t, t_dark])
            sign = np.concatenate([sign, sign_dark])
        idx = np.full(t.shape[0], setting_index, dtype=np.uint8)
        streams.append(make_stream(station, tick_resolution_ps, t, sign, idx))
    return streams[0], streams[1]


def write_ttg(stream: EventStream, path) -> int:
    """Write a stream to a TTG1 file; returns the number of bytes written."""
    n = len(stream)
    header = HEADER.pack(
        MAGIC, VERSION, int(stream.station), 0, stream.tick_resolution_ps, n
    )
    records = np.empty(n, dtype=RECORD_DTYPE)
    records["t"] = stream.t
    records["flags"] = (
        (stream.sign & _SIGN_BIT)
        | ((stream.setting_index << _SETTING_SHIFT) & _SETTING_MASK)
    ).astype(np.uint8)
    payload = header + records.tobytes()
    Path(path).write_bytes(payload)
    return len(payload)


def read_ttg(path) -> EventStream:
    """Read and validate a TTG1 file."""
    data = Path(path).read_bytes()
    if len(data) < HEADER.size:
        raise TruncatedFile(
            f"file is {len(data)} bytes, header needs {HEADER.size}", 0
        )
    magic, version, station, reserved, tick, count = HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise BadMagic(f"expected magic {MAGIC!r}, got {magic!r}", 0)
    if version != VERSION:
        raise UnsupportedVersion(f"unsupported version {version}", 4)
    if station not in (0, 1):
        raise InvalidFlags(f"station byte must be 0 or 1, got {station}", 5)
    if reserved != 0:
        raise InvalidFlags(f"reserved header field must be 0, got {reserved}", 6)
    if tick == 0:
        raise InvalidFlags("tick_resolution_ps must be > 0", 8)

    body = len(data) - HEADER.size
    expected = count * RECORD_DTYPE.itemsize
    if body < expected:
        n_complete = body // RECORD_DTYPE.itemsize
        raise TruncatedFile(
            f"header promises {count} records but only {n_complete} are complete",
            HEADER.size + n_complete * RECORD_DTYPE.itemsize,
        )
    if body > expected:
        raise TrailingData(
            f"{body - expected} unexpected bytes after {count} records",
            HEADER.size + expected,
        )

    records = np.frombuffer(data, dtype=RECORD_DTYPE, count=count, offset=HEADER.size)
    flags = records["flags"]
    bad_reserved = np.nonzero(flags & _RESERVED_MASK)[0]
    if bad_reserved.size:
        i = int(bad_reserved[0])
        raise InvalidFlags(
            f"record {i} has non-zero reserved flag bits",
            HEADER.size + i * RECORD_DTYPE.itemsize + 8,
        )
    t = records["t"]
    if count > 1:
        drops = np.nonzero(t[1:] < t[:-1])[0]
        if drops.size:
            i = int(drops[0]) + 1
            raise UnsortedTimestamps(
                f"record {i} timestamp {int(t[i])} is before its predecessor "
                f"{int(t[i - 1])}",
                HEADER.size + i * RECORD_DTYPE.itemsize,
            )

    sign = (flags & _SIGN_BIT).astype(np.uint8)
    setting_index = ((flags & _SETTING_MASK) >> _SETTING_SHIFT).astype(np.uint8)
    return make_stream(Station(station), int(tick), t.copy(), sign, setting_index)


def write_csv(stream: EventStream, path) -> None:
    """Plain-text escape hatch: t,sign,setting_index with a header line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# station={int(stream.station)} tick_resolution_ps={stream.tick_resolution_ps}\n")
        fh.write("t,sign,setting_index\n")
        for i in range(len(stream)):
            fh.write(f"{int(stream.t[i])},{int(stream.sign[i])},{int(stream.setting_index[i])}\n")


def read_csv(path) -> EventStream:
    """Read the CSV escape-hatch format produced by :func:`write_csv`."""
    with open(path, "r", encoding="utf-8") as fh:
        meta = fh.readline().strip()
        if not meta.startswith("#"):
            raise ValueError("missing metadata line")
        fields = dict(part.split("=") for part in meta[1:].split())
        header = fh.readline().strip()
        if header != "t,sign,setting_index":
            raise ValueError(f"unexpected column header {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    t = np.array([int(r[0]) for r in rows], dtype=np.uint64)
    sign = np.array([int(r[1]) for r in rows], dtype=np.uint8)
    setting = np.array([int(r[2]) for r in rows], dtype=np.uint8)
    return make_stream(
        Station(int(fields["station"])),
        int(fields["tick_resolution_ps"]),
        t,
        sign,
        setting,
    )
