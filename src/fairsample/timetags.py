"""Time-tagged event streams and the TTG1 binary file format.

Event generation turns the counts of a block (``simulate_block``) into two
per-station streams of (timestamp, sign, setting) records.  Pair emission
is a Poisson process: one Gamma(n + 1) horizon for the block's n emitted
pairs, and one uniform time under it per observed pair, which is exactly
the process seen at the observed pairs (see :func:`generate_streams`).
Each detected photon gets independent Gaussian timing jitter, and
optional dark counts are superimposed as a uniform Poisson background
with random signs.

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

import struct
from dataclasses import InitVar, dataclass
from pathlib import Path

import numpy as np

from .detection import BlockCounts
from .fileio import atomic_write
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
class EventStream:
    """One station's detections: parallel arrays sorted by timestamp.

    Ties in ``t`` are ordered Plus before Minus so that downstream
    matching is deterministic.  ``tick_resolution_ps`` is the physical
    duration of one timestamp tick.  ``validate=False`` skips the checks
    that scan the arrays, for a caller that has already made them.
    """

    station: Station
    tick_resolution_ps: int
    t: np.ndarray
    sign: np.ndarray
    setting_index: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        if self.tick_resolution_ps <= 0:
            raise ValueError(
                f"tick_resolution_ps must be > 0, got {self.tick_resolution_ps}"
            )
        n = self.t.shape[0]
        if self.sign.shape[0] != n or self.setting_index.shape[0] != n:
            raise ValueError("t, sign and setting_index must have equal length")
        if self.t.dtype != np.uint64:
            raise ValueError(f"t must be uint64, got {self.t.dtype}")
        if validate and n:
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


def _to_ticks(t: np.ndarray) -> np.ndarray:
    """Float tick times as uint64, refused before the cast at 2**63 or beyond.

    RunConfig keeps the emission clock below 2**53 ticks; direct callers
    can pass rates and resolutions whose times no uint64 holds.
    """
    if t.shape[0] and not t.max() < 2.0**63:
        raise ValueError("event times reach 2**63 ticks")
    return t.astype(np.uint64)


# Signs of the observed pairs, class by class, in the layout generate_streams
# gives them: A-only Plus, A-only Minus, the coincidence cells ++, +-, -+, --,
# then B-only Plus, B-only Minus.  Alice's pairs are the first six classes and
# Bob's the last six, so each station's emission times are one slice.
_SIGNS_A = np.array([0, 1, 0, 0, 1, 1], dtype=np.uint8)
_SIGNS_B = np.array([0, 1, 0, 1, 0, 1], dtype=np.uint8)


def generate_streams(
    counts: BlockCounts,
    pair_rate_hz: float,
    tick_resolution_ps: int,
    jitter_sd_ticks: float,
    seed,
    setting_index: int = 0,
    dark_rate_hz: float = 0.0,
) -> tuple[EventStream, EventStream]:
    """Time-tag the observed pairs of a block as two per-station streams.

    ``counts`` fixes how many of its ``n_pairs_emitted`` pairs fall in each
    of the eight observed classes: the four coincidence cells, and the pairs
    seen at one station only, by that station's sign.  Pair emission is a
    Poisson process at ``pair_rate_hz``.  Given that the (n+1)-th arrival
    is at tau, its first n arrivals are the order statistics of n
    independent U(0, tau) times, and the pairs' categories are independent
    of the times.  So one horizon tau ~ Gamma(n + 1, mean gap) and one
    U(0, tau) time per observed pair give the observed pairs exactly the
    emission times of the full process; the unobserved pairs need no time.

    A pair seen at both stations has one emission time; each detected
    photon's timestamp is that time plus its own Gaussian jitter (rounded,
    clamped at zero).  Dark counts, if enabled, arrive uniformly over the
    nominal duration n / pair_rate_hz on each channel independently at
    ``dark_rate_hz`` per channel.
    """
    if pair_rate_hz <= 0.0:
        raise ValueError(f"pair_rate_hz must be > 0, got {pair_rate_hz}")
    if tick_resolution_ps <= 0:
        raise ValueError(f"tick_resolution_ps must be > 0, got {tick_resolution_ps}")
    if jitter_sd_ticks < 0.0:
        raise ValueError(f"jitter_sd_ticks must be >= 0, got {jitter_sd_ticks}")
    if dark_rate_hz < 0.0:
        raise ValueError(f"dark_rate_hz must be >= 0, got {dark_rate_hz}")
    if not 0 <= setting_index <= 3:
        raise ValueError(f"setting_index must be in 0..3, got {setting_index}")
    c = counts
    coincidences = (c.n_pp, c.n_pm, c.n_mp, c.n_mm)
    only_a = (c.s_a_plus - c.n_pp - c.n_pm, c.s_a_minus - c.n_mp - c.n_mm)
    only_b = (c.s_b_plus - c.n_pp - c.n_mp, c.s_b_minus - c.n_pm - c.n_mm)
    n = c.n_pairs_emitted
    n_observed = sum(coincidences) + sum(only_a) + sum(only_b)
    if n_observed > n:
        raise ValueError(
            f"counts hold {n_observed} observed pairs but n_pairs_emitted is {n}"
        )
    rng = np.random.default_rng(seed)

    ticks_per_second = 1e12 / tick_resolution_ps
    mean_gap_ticks = ticks_per_second / pair_rate_hz
    # Arrays are updated in place and dropped as soon as they are spent, so
    # a point holds few full-size arrays at once.
    emission = rng.random(n_observed)
    emission *= rng.gamma(n + 1, mean_gap_ticks)
    split = sum(only_a)
    hits = []
    for times, signs, classes in (
        (emission[: split + sum(coincidences)], _SIGNS_A, only_a + coincidences),
        (emission[split:], _SIGNS_B, coincidences + only_b),
    ):
        t = rng.normal(0.0, jitter_sd_ticks, times.shape[0])
        t += times
        np.rint(t, out=t)
        np.maximum(t, 0.0, out=t)
        hits.append((_to_ticks(t), np.repeat(signs, classes)))
    del emission

    duration_ticks = n / pair_rate_hz * ticks_per_second
    streams = []
    for station in (Station.ALICE, Station.BOB):
        t, sign = hits.pop(0)
        if dark_rate_hz > 0.0:
            n_dark = rng.poisson(2.0 * dark_rate_hz * n / pair_rate_hz)
            t_dark = _to_ticks(rng.uniform(0.0, duration_ticks, n_dark))
            sign_dark = rng.integers(0, 2, n_dark).astype(np.uint8)
            t = np.concatenate([t, t_dark])
            sign = np.concatenate([sign, sign_dark])
        # One in-place sort of the key 2t + sign orders the events by
        # (t, sign) as make_stream does, without its index and gathered
        # arrays; _to_ticks keeps t below 2**63, so 2t + sign fits.
        np.left_shift(t, np.uint64(1), out=t)
        t |= sign
        del sign
        t.sort()
        sign = (t & np.uint64(1)).astype(np.uint8)
        t >>= np.uint64(1)
        idx = np.full(t.shape[0], setting_index, dtype=np.uint8)
        # The sort gives the (t, sign) order, sign is one bit and the
        # setting was checked above: nothing is left for EventStream to scan.
        streams.append(
            EventStream(station, tick_resolution_ps, t, sign, idx, validate=False)
        )
    return streams[0], streams[1]


def write_ttg(stream: EventStream, path) -> int:
    """Write a stream to a TTG1 file atomically; returns its size in bytes."""
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
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(records.data)
    return len(header) + records.nbytes


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

    # One copy of each field out of the 9-byte records: every check below
    # runs on contiguous arrays, and the file's bytes are not kept.
    records = np.frombuffer(data, dtype=RECORD_DTYPE, count=count, offset=HEADER.size)
    t = records["t"].copy()
    flags = records["flags"].copy()
    del records, data
    # A reserved bit is set somewhere exactly when the largest flags byte
    # has one set.
    if count and flags.max() & _RESERVED_MASK:
        i = int(np.flatnonzero(flags & _RESERVED_MASK)[0])
        raise InvalidFlags(
            f"record {i} has non-zero reserved flag bits",
            HEADER.size + i * RECORD_DTYPE.itemsize + 8,
        )
    # One pass finds the records no later than their predecessors: the
    # ties, and the first out-of-order record if there is one.
    ties = np.flatnonzero(t[1:] <= t[:-1])
    drops = ties[t[ties + 1] < t[ties]]
    if drops.size:
        i = int(drops[0]) + 1
        raise UnsortedTimestamps(
            f"record {i} timestamp {int(t[i])} is before its predecessor "
            f"{int(t[i - 1])}",
            HEADER.size + i * RECORD_DTYPE.itemsize,
        )

    sign = flags & _SIGN_BIT
    # With the reserved bits clear, the setting index is all that remains
    # of flags above the sign bit.
    setting_index = np.right_shift(flags, _SETTING_SHIFT, out=flags)
    if np.any(sign[ties] > sign[ties + 1]):
        # Equal-timestamp records with Minus before Plus: restore the
        # canonical order.  Files this package writes never need it.
        return make_stream(Station(station), int(tick), t, sign, setting_index)
    # Every check EventStream would repeat has been made above, or holds
    # by construction: sign and setting_index are bit fields of flags.
    return EventStream(
        Station(station), int(tick), t, sign, setting_index, validate=False
    )
