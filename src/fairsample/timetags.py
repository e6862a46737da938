"""Time-tagged event streams and the TTG1 binary file format.

Event generation turns the counts of a block (``simulate_block``) into two
per-station streams of (timestamp, sign, setting) records.  Pair emission
is a Poisson process: one Gamma(n + 1) horizon for the block's n emitted
pairs, and one uniform time under it per observed pair, which is exactly
the process seen at the observed pairs (see :func:`generate_slices`).
Each detected photon's time has the law of its pair's time plus its own
Gaussian timing jitter, and optional dark counts are superimposed as a
uniform Poisson background with random signs.  A block is one settings
pair, so every generated event carries setting index 0; the point's
angles are recorded in the run manifest, not in the events.

A point's streams are generated, written, read and matched in pieces of
at most ``BLOCK`` observed pairs or records, so that its working set does
not grow with its length beyond its longest cluster (see ``BLOCK``):
:func:`generate_slices` yields one station's stream of one time slice at
a time, Alice's and then Bob's, a :class:`TtgWriter` from
:func:`ttg_writer` appends each to its station's file through a fixed
buffer of records, and a :class:`TtgReader` from :func:`open_ttg` reads a
file back in chunks.  :func:`read_ttg`, which
joins a file's chunks into one stream, is called by the benchmark's
checks (``perfbench/checks.py``) only.

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
bytes.  Each is a ``TtgFormatError`` (a ``ValueError``) whose ``offset``
is the byte that shows the problem and whose ``path`` is the file read.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager
from dataclasses import InitVar, dataclass
from typing import Iterator

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

# Observed pairs per generated time slice, records per chunk read from a
# file, and events in one merge of the matcher, half from each station.  A
# point's working set is one block plus the longest cluster of its merged
# timeline: the matcher doubles a block until its cluster fits, for that
# block only, so a window that makes the whole point one cluster holds the
# whole point.
BLOCK = 1 << 18
# Records a TtgWriter packs and writes at once: 590 KB of buffer.
_WRITE_RECORDS = 1 << 16


class TtgFormatError(ValueError):
    """A TTG1 file violates the format; ``offset`` is the offending byte.

    ``path`` is the file, as it was given to the reader.
    """

    def __init__(self, message: str, offset: int, path=None) -> None:
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset
        self.path = path


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

    def chunks(self) -> "tuple[EventStream]":
        """The stream as one chunk, as :meth:`TtgReader.chunks` gives a file."""
        return (self,)


def make_stream(
    station: Station,
    tick_resolution_ps: int,
    t: np.ndarray,
    sign: np.ndarray,
    setting_index: np.ndarray,
) -> EventStream:
    """Build an EventStream, sorting by (t, sign) with a stable sort.

    ``t`` must hold non-negative integers; a cast to uint64 would wrap a
    negative timestamp round to near 2**64 and truncate a fractional one.
    """
    t = np.asarray(t)
    if t.size and t.dtype.kind not in "ui":
        raise ValueError(f"timestamps must be integers, got dtype {t.dtype}")
    if t.size and t.dtype.kind == "i" and t.min() < 0:
        raise ValueError(f"timestamps must be >= 0, got {int(t.min())}")
    order = np.lexsort((sign, t))
    return EventStream(
        station=station,
        tick_resolution_ps=tick_resolution_ps,
        t=t[order].astype(np.uint64, copy=False),
        sign=np.ascontiguousarray(sign[order], dtype=np.uint8),
        setting_index=np.ascontiguousarray(setting_index[order], dtype=np.uint8),
    )


# Signs of the observed pairs, class by class, in the layout generate_slices
# gives them: A-only Plus, A-only Minus, the coincidence cells ++, +-, -+, --,
# then B-only Plus, B-only Minus.  Alice's pairs are the first six classes and
# Bob's the last six, so each station's emission times are one slice.
_SIGNS_A = np.array([0, 1, 0, 0, 1, 1], dtype=np.uint8)
_SIGNS_B = np.array([0, 1, 0, 1, 0, 1], dtype=np.uint8)

# A Gaussian draw below -40 SD or above 40 SD has probability under 1e-300;
# generation treats every jitter as lying within this many SDs.
_TAIL_SD = 40.0
# Events within this many jitter standard deviations, plus one tick, of a
# time slice's end are held back for the next slice.  A later slice's photon
# lies at most 120 SD before its pair's uniform time: Bob's offset moves a
# photon at most 57 SD, and an end-zone pair's redrawn time lies less than
# 80 SD before it, and a photon at most 40 SD before that.
_HOLD_BACK_SD = 3 * _TAIL_SD


class TimingError(ValueError):
    """A timing parameter :func:`generate_slices` refuses, named by ``name``."""

    def __init__(self, name: str, problem: str) -> None:
        super().__init__(f"{name} {problem}")
        self.name, self.problem = name, problem


def check_timing(
    n_pairs_emitted: int, pair_rate_hz: float, tick_resolution_ps: int,
    jitter_sd_ticks: float, dark_rate_hz: float = 0.0,
) -> None:
    """Raise TimingError for the first parameter whose times cannot be formed.

    Float64 emission times are exact to the tick only up to 2**53 ticks, so
    the clock, ``n_pairs_emitted / pair_rate_hz`` in ticks, plus the
    hold-back reach of 120 jitter SDs and one tick, must stay within 2**53.
    A time then reaches 2**63 ticks, where its key 2t + sign overflows, only
    if the Gamma(n + 1) horizon is about 1000 times the nominal duration:
    probability below e**-1000 for n >= 1, and n = 0 draws no times.  A
    point may expect at most 2**32 dark counts per station.
    """
    if not n_pairs_emitted >= 0:
        raise TimingError("n_pairs_emitted", f"must be >= 0, got {n_pairs_emitted}")
    if not 0.0 < pair_rate_hz < math.inf:
        raise TimingError("pair_rate_hz", f"must be finite and > 0, got {pair_rate_hz}")
    if not 0 < tick_resolution_ps <= 2**64 - 1:
        raise TimingError(
            "tick_resolution_ps", f"must be in 1..2**64 - 1, got {tick_resolution_ps}"
        )
    for name, value in (("jitter_sd_ticks", jitter_sd_ticks), ("dark_rate_hz", dark_rate_hz)):
        if not 0.0 <= value < math.inf:
            raise TimingError(name, f"must be finite and >= 0, got {value}")
    clock = n_pairs_emitted / pair_rate_hz * (1e12 / tick_resolution_ps)
    for name, value, bits, what in (
        ("n_pairs_emitted", clock, 53, "the emission clock in ticks"),
        ("jitter_sd_ticks", clock + _HOLD_BACK_SD * jitter_sd_ticks + 1.0, 53,
         "the clock plus the hold-back reach of 120 SD + 1 tick"),
        ("dark_rate_hz", 2.0 * dark_rate_hz * n_pairs_emitted / pair_rate_hz, 32,
         "the expected dark counts per station"),
    ):
        if value > 2**bits:
            raise TimingError(name, f"must keep {what} within 2**{bits}, got {value:.6g}")


def _redraw_end_zones(rng, anchor, tau: float, sd: float, partner=None, first=0) -> None:
    """Give the pairs whose uniform time lies in an end zone their literal photon times.

    ``anchor`` holds pairs' uniform times; the pair of ``anchor[first + j]``
    also has a photon ``partner[j]`` at the other station.  The pairs in
    the zones [0, w) and [tau - w, tau), w = min(40 sd, tau / 2), are found
    first.  Then, lower zone first, a zone's pending pairs are drawn again
    from the per-photon model until each anchor photon lies in the zone: a
    round draws their emission times, uniform within w + 40 sd of the
    zone's end, then the anchor photons' N(0, sd**2) jitters, then the
    partners'.  Both arrays are updated in place, ``anchor`` clamped at zero.
    """
    w = min(_TAIL_SD * sd, tau / 2.0)
    reach = w + _TAIL_SD * sd
    # Per zone: whether its photons lie below its inner edge, that edge, and
    # the range of its redrawn emission times.
    zones = ((True, w, 0.0, min(reach, tau)), (False, tau - w, max(tau - reach, 0.0), tau))
    pending = [np.flatnonzero((anchor < edge) == below) for below, edge, _, _ in zones]
    for (below, edge, lo, hi), idx in zip(zones, pending):
        while idx.shape[0]:
            u = rng.uniform(lo, hi, idx.shape[0])
            near = rng.normal(u, sd)
            far = rng.normal(u, sd)
            ok = (near < edge) == below
            anchor[idx[ok]] = np.maximum(near[ok], 0.0)
            if partner is not None:
                pair = ok & (idx >= first)
                partner[idx[pair] - first] = far[pair]
            idx = idx[~ok]


def generate_slices(
    counts: BlockCounts,
    pair_rate_hz: float,
    tick_resolution_ps: int,
    jitter_sd_ticks: float,
    seed,
    dark_rate_hz: float = 0.0,
) -> Iterator[EventStream]:
    """Time-tag the observed pairs of a block, one station's time slice at a time.

    ``counts`` fixes how many of its ``n_pairs_emitted`` pairs fall in each
    of the eight observed classes: the four coincidence cells, and the pairs
    seen at one station only, by that station's sign.  Pair emission is a
    Poisson process at ``pair_rate_hz``.  Given that the (n+1)-th arrival
    is at tau, its first n arrivals are the order statistics of n
    independent U(0, tau) times, and the pairs' categories are independent
    of the times.  So one horizon tau ~ Gamma(n + 1, mean gap) and one
    U(0, tau) time per observed pair give the observed pairs exactly the
    emission times of the full process; the unobserved pairs need no time.

    Before any draw, :func:`check_timing` refuses parameters whose times
    float64 cannot hold to the tick, and a ``counts`` that holds more
    observed pairs than ``n_pairs_emitted`` is refused too.

    [0, tau) is cut into K equal slices, K = max(1, ceil(observed pairs /
    BLOCK), ceil(expected dark counts per station / BLOCK)), so that the
    pairs do not crowd one slice.  Each class's i.i.d. uniform times fall
    into the slices multinomially and are uniform within their slice,
    which is the same law.  Dark counts arrive uniformly over the nominal
    duration D = n / pair_rate_hz on each channel independently at
    ``dark_rate_hz`` per channel: a Poisson count per slice over the
    slice's part of [0, D), the last slice reaching to max(tau, D).  So the
    dark counts crowd no slice either, except when tau < D: the last slice
    then also takes every dark count of [tau, D).

    In the per-photon model each detected photon's timestamp is its pair's
    emission time plus its own N(0, sd**2) jitter, rounded and clamped at
    zero.  The generator draws the same law with fewer numbers.  Let
    w = min(40 sd, tau / 2).  A pair whose uniform time U lies in
    [w, tau - w] gives Alice's photon, or the photon of a pair seen at Bob
    only, the time U itself, and Bob's photon of a coincidence pair
    U + N(0, 2 sd**2): one normal draw per coincidence pair.  Where the
    jittered time is at least 40 SD from both ends of [0, tau), its density
    is flat, it lands in [w, tau - w] as often as U does, and the partner's
    offset from it is N(0, 2 sd**2), independent of it; this holds to
    Phi(-40) < 1e-300.  A pair whose U lies in an end zone, [0, w) or
    [tau - w, tau), is drawn again from the per-photon model, its emission
    time uniform within w + 40 SD of that end, until its anchor photon
    (Alice's, or Bob's for a pair seen at Bob only) lies in the same zone
    (:func:`_redraw_end_zones`).  Both models put an anchor in an end zone
    with probability w / tau.

    Each slice yields two streams, Alice's and then Bob's, and the
    generator keeps no reference to a stream it has yielded: a caller that
    drops Alice's stream before asking for Bob's has freed it before Bob's
    is built.  Each slice's events are sorted by (t, sign), and those
    within 120 jitter SDs plus one tick of its end are held back into the
    next slice, so that a station's yielded streams join into its sorted
    stream: a later slice's photon lies at most 120 SD before its pair's
    uniform time.  A station's slice is sorted as one key per event,
    2(t - origin) + sign: uint32 from the slice's lowest time when the
    slice's span lets every key fit, uint64 from 0 otherwise.  Either
    width gives the same order, so the streams do not depend on it.

    Draws go slice by slice: the uniform times of Alice's pairs and then
    of the pairs seen at Bob only (after the first slice's, tau), then
    Bob's offsets, then the redrawn end-zone pairs of Alice and of Bob,
    then Alice's and Bob's dark counts: number, times, signs.  A one-slice
    block draws no numbers for its split, nor does a slice without dark
    counts for them.
    """
    n = counts.n_pairs_emitted
    check_timing(n, pair_rate_hz, tick_resolution_ps, jitter_sd_ticks, dark_rate_hz)
    unmatched = counts.unmatched()
    classes = np.concatenate([unmatched[:2], counts.as_array()[:4], unmatched[2:]])
    n_observed = int(classes.sum())
    if n_observed > n:
        raise ValueError(
            f"counts hold {n_observed} observed pairs but n_pairs_emitted is {n}"
        )
    dark_mean = 2.0 * dark_rate_hz * n / pair_rate_hz
    rng = np.random.default_rng(seed)
    n_slices = max(1, -(-n_observed // BLOCK), math.ceil(dark_mean / BLOCK))
    per_slice = rng.multinomial(classes, [1.0 / n_slices] * n_slices).T

    ticks_per_second = 1e12 / tick_resolution_ps
    mean_gap_ticks = ticks_per_second / pair_rate_hz
    duration_ticks = n / pair_rate_hz * ticks_per_second
    end_zone = _TAIL_SD * jitter_sd_ticks
    hold_back = _HOLD_BACK_SD * jitter_sd_ticks + 1.0
    held = [np.empty(0, dtype=np.uint64)] * 2
    last_key = [0, 0]
    slice_ticks = tau = 0.0
    for k, sizes in enumerate(per_slice):
        final = k == n_slices - 1
        # Arrays are updated in place and dropped as soon as they are spent,
        # so a slice holds few of its full-size arrays at once.
        n_a, n_ab = int(sizes[:2].sum()), int(sizes[2:6].sum())
        # The uniform times of Alice's pairs (seen at Alice only, then at
        # both stations), and of the pairs seen at Bob only, which follow
        # Bob's photons of the coincidence pairs in his array.
        alice = rng.random(n_a + n_ab)
        bob = np.empty(n_ab + int(sizes[6:].sum()))
        bob_only = rng.random(out=bob[n_ab:])
        if k == 0:
            slice_ticks = rng.gamma(n + 1, mean_gap_ticks) / n_slices
            tau = slice_ticks * n_slices
        end = (k + 1) * slice_ticks
        for times in (alice, bob_only):
            if k:
                times += k
            times *= slice_ticks
        # Bob's photon of a coincidence pair: Alice's time plus N(0, 2 sd**2),
        # from the standard normals that normal(0, scale) would scale.
        rng.standard_normal(out=bob[:n_ab])
        bob[:n_ab] *= math.sqrt(2.0) * jitter_sd_ticks
        bob[:n_ab] += alice[n_a:]
        if jitter_sd_ticks > 0.0 and (k * slice_ticks < end_zone or end >= tau - end_zone):
            _redraw_end_zones(rng, alice, tau, jitter_sd_ticks, bob, n_a)
            _redraw_end_zones(rng, bob_only, tau, jitter_sd_ticks)
        # Times are rounded to ticks and clamped at zero; only Bob's photons
        # of the coincidence pairs can be negative here.
        np.maximum(bob, 0.0, out=bob)
        for times in (alice, bob):
            np.rint(times, out=times)
        floats = [alice, bob]
        del times, alice, bob, bob_only

        dark_lo = min(k * slice_ticks, duration_ticks)
        dark_hi = duration_ticks if final else min(end, duration_ticks)
        share = (dark_hi - dark_lo) / duration_ticks if duration_ticks > 0 else 0.0
        for s, (station, signs, classes_k) in enumerate(
            zip((Station.ALICE, Station.BOB), (_SIGNS_A, _SIGNS_B), (sizes[:6], sizes[2:]))
        ):
            n_dark = rng.poisson(dark_mean * share)
            dark = rng.uniform(dark_lo, dark_hi, n_dark)
            # The slice's lowest and highest time, from its events held back
            # (sorted), its photons (rounded) and its dark counts (truncated,
            # none below dark_lo).
            kept, photons = held[s], floats[s]
            n_held, n_hits = kept.shape[0], photons.shape[0]
            ends = [(int(kept[0]) >> 1, int(kept[-1]) >> 1)] if n_held else []
            if n_hits:
                ends.append((int(photons.min()), int(photons.max())))
            if n_dark:
                ends.append((math.floor(dark_lo), int(dark.max())))
            low = min((lo for lo, _ in ends), default=0)
            high = max((hi for _, hi in ends), default=0)
            # One buffer of keys 2(t - origin) + sign: the events held back,
            # the photons in class order, then the dark counts.  One in-place
            # sort of it orders the events by (t, sign) as make_stream does,
            # without its index and gathered arrays.  Where the slice's span
            # lets them, the keys are uint32 from the lowest time, which sort
            # faster; otherwise they are uint64 from 0, which fit: under
            # check_timing's bound t stays below 2**63 (see there).  A float
            # time less the whole origin is exact either way: below 2**53 a
            # float's spacing divides 1, and above it a 32-bit span keeps the
            # origin over half the time (Sterbenz's lemma).
            narrow = 2 * (high - low) + 1 < 2**32
            origin = low if narrow else 0
            t = np.empty(n_held + n_hits + n_dark, dtype=np.uint32 if narrow else np.uint64)
            np.subtract(kept, np.uint64(2 * origin), out=t[:n_held])
            keys = t[n_held : n_held + n_hits]
            if origin:
                photons -= origin
            keys[...] = photons
            # The station's floats go before the next station's buffer is made.
            floats[s] = None
            del kept, photons
            keys <<= 1
            class_end = np.cumsum(classes_k)
            for lo, hi, sign in zip(class_end - classes_k, class_end, signs):
                if sign:
                    keys[lo:hi] |= 1
            # The dark times less the origin truncate as the times would.
            if origin:
                dark -= origin
            keys = t[n_held + n_hits :]
            keys[...] = dark
            del dark
            keys <<= 1
            # Either key type draws the same 32-bit numbers for the signs.
            keys |= rng.integers(0, 2, n_dark, dtype=t.dtype)
            del keys
            t.sort()
            if not final:
                # Later slices' events are at least end - 120 SD - 1/2 after
                # rounding, so every event below the cut is final.
                cut = end - hold_back
                below = math.ceil(cut) if cut > 0.0 else 0
                if below <= origin:
                    keep = 0
                elif below > high:
                    keep = t.shape[0]
                else:
                    keep = int(np.searchsorted(t, t.dtype.type(2 * (below - origin))))
                held[s] = np.add(t[keep:], np.uint64(2 * origin), dtype=np.uint64)
                t = t[:keep]
            if t.shape[0]:
                if int(t[0]) + 2 * origin < last_key[s]:
                    raise RuntimeError(
                        f"slice {k}: an event lies before the events already "
                        "given out, past the jitter hold-back"
                    )
                last_key[s] = int(t[-1]) + 2 * origin
            sign = np.bitwise_and(
                t, 1, out=np.empty(t.shape[0], dtype=np.uint8), casting="unsafe"
            )
            # 32-bit keys are widened here, and their buffer freed.
            t = np.right_shift(t, 1, out=np.empty(t.shape[0], dtype=np.uint64) if narrow else t)
            if origin:
                t += origin
            idx = np.zeros(t.shape[0], dtype=np.uint8)
            # The sort gives the (t, sign) order, sign is one bit and every
            # setting is 0: nothing is left for EventStream to scan.
            stream = [EventStream(station, tick_resolution_ps, t, sign, idx, validate=False)]
            # Keep no reference to the stream given out, so that the caller
            # can free it before the next station's buffer is made.
            del t, sign, idx
            yield stream.pop()


class TtgWriter:
    """Appends one station's records to a TTG1 file opened by :func:`ttg_writer`."""

    def __init__(self, fh, station: Station, tick_resolution_ps: int) -> None:
        self._fh = fh
        self.station = station
        self.tick_resolution_ps = tick_resolution_ps
        self.count = 0

    def append(self, stream: EventStream) -> None:
        """Write the records of ``stream``, which continue those written.

        The stream's station and tick resolution must be the file header's:
        the records carry neither.
        """
        if (stream.station, stream.tick_resolution_ps) != (
            self.station, self.tick_resolution_ps
        ):
            raise ValueError(
                f"stream of {stream.station.name} at {stream.tick_resolution_ps} ps "
                f"does not fit a file of {self.station.name} at "
                f"{self.tick_resolution_ps} ps"
            )
        n = len(stream)
        if not n:
            return
        # One buffer of at most _WRITE_RECORDS records is packed and written
        # in turn, so writing adds no copy of the whole stream.  The setting
        # bits are made in a contiguous scratch array: byte operations on
        # the records' strided flags field are slow.
        size = min(n, _WRITE_RECORDS)
        records = np.empty(size, dtype=RECORD_DTYPE)
        scratch = np.empty(size, dtype=np.uint8)
        for lo in range(0, n, size):
            part = records[: n - lo]
            hi = lo + part.shape[0]
            bits = scratch[: part.shape[0]]
            part["t"] = stream.t[lo:hi]
            np.left_shift(
                stream.setting_index[lo:hi], _SETTING_SHIFT, out=bits, casting="unsafe"
            )
            bits &= _SETTING_MASK
            np.bitwise_or(
                bits, stream.sign[lo:hi] & _SIGN_BIT, out=part["flags"], casting="unsafe"
            )
            self._fh.write(part.data)
        self.count += n


@contextmanager
def ttg_writer(path, station: Station, tick_resolution_ps: int) -> Iterator[TtgWriter]:
    """A :class:`TtgWriter` onto a new TTG1 file that appears at ``path`` atomically.

    The header's record count is written when the block ends, just before
    the file takes its name; a block that raises leaves no file behind.
    """
    with atomic_write(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, VERSION, int(station), 0, tick_resolution_ps, 0))
        writer = TtgWriter(fh, Station(station), tick_resolution_ps)
        yield writer
        fh.seek(0)
        fh.write(
            HEADER.pack(MAGIC, VERSION, int(station), 0, tick_resolution_ps, writer.count)
        )


class TtgReader:
    """A TTG1 file open for reading, its header and length checked.

    ``station``, ``tick_resolution_ps`` and ``len()`` come from the header;
    :meth:`chunks` reads the records.  Open one with :func:`open_ttg`.
    """

    def __init__(self, fh, path) -> None:
        self.path = path
        self._fh = fh
        head = fh.read(HEADER.size)
        if len(head) < HEADER.size:
            raise self._error(f"file is {len(head)} bytes, header needs {HEADER.size}", 0)
        magic, version, station, reserved, tick, count = HEADER.unpack(head)
        if magic != MAGIC:
            raise self._error(f"expected magic {MAGIC!r}, got {magic!r}", 0)
        if version != VERSION:
            raise self._error(f"unsupported version {version}", 4)
        if station not in (0, 1):
            raise self._error(f"station byte must be 0 or 1, got {station}", 5)
        if reserved != 0:
            raise self._error(f"reserved header field must be 0, got {reserved}", 6)
        if tick == 0:
            raise self._error("tick_resolution_ps must be > 0", 8)
        body = fh.seek(0, 2) - HEADER.size
        expected = count * RECORD_DTYPE.itemsize
        if body < expected:
            raise self._short(count, body // RECORD_DTYPE.itemsize)
        if body > expected:
            raise self._error(
                f"{body - expected} unexpected bytes after {count} records",
                HEADER.size + expected,
            )
        self.station = Station(station)
        self.tick_resolution_ps = int(tick)
        self._count = count

    def __len__(self) -> int:
        return self._count

    def _error(self, message: str, offset: int) -> TtgFormatError:
        return TtgFormatError(message, offset, self.path)

    def _short(self, count: int, n_complete: int) -> TtgFormatError:
        return self._error(
            f"header promises {count} records but only {n_complete} are complete",
            HEADER.size + n_complete * RECORD_DTYPE.itemsize,
        )

    def chunks(self) -> Iterator[EventStream]:
        """The records in order, as EventStreams of about ``BLOCK`` records.

        Each chunk is checked as it is read, and the first record that has
        reserved flag bits set or a timestamp before its predecessor's
        raises, wherever it lies in the file.  The run of equal timestamps
        that ends a chunk is carried into the next one, so that records of
        one timestamp stored Minus before Plus are put in canonical order
        even when they straddle two chunks.
        """
        fh = self._fh
        fh.seek(HEADER.size)
        size = BLOCK
        carry_t = np.empty(0, dtype=np.uint64)
        carry_flags = np.empty(0, dtype=np.uint8)
        for first in range(0, self._count, size):
            n = min(size, self._count - first)
            data = fh.read(n * RECORD_DTYPE.itemsize)
            if len(data) < n * RECORD_DTYPE.itemsize:
                # The file shrank after it was opened.
                raise self._short(self._count, first + len(data) // RECORD_DTYPE.itemsize)
            records = np.frombuffer(data, dtype=RECORD_DTYPE)
            t = np.concatenate((carry_t, records["t"]))
            flags = np.concatenate((carry_flags, records["flags"]))
            del records, data
            ties = self._check(t, flags, first - carry_t.shape[0])
            if first + n < self._count:
                # The last timestamp may go on in the next chunk.
                keep = int(np.searchsorted(t, t[-1]))
                carry_t, carry_flags = t[keep:].copy(), flags[keep:].copy()
                t, flags = t[:keep], flags[:keep]
                ties = ties[ties < keep - 1]
            if t.shape[0]:
                # Keep no reference to the chunk given out, so that its
                # arrays are freed once the caller is done with them.
                chunk = [self._stream(t, flags, ties)]
                del t, flags, ties
                yield chunk.pop()

    def _check(self, t: np.ndarray, flags: np.ndarray, base: int) -> np.ndarray:
        """Raise for the first faulty record; return the indices p with t[p + 1] <= t[p].

        ``t`` and ``flags`` are records ``base`` on; of a reserved-bits and
        an out-of-order fault, the one at the smaller byte offset is named.
        """
        faults = []
        if flags.max() & _RESERVED_MASK:
            i = base + int(np.flatnonzero(flags & _RESERVED_MASK)[0])
            faults.append((
                HEADER.size + i * RECORD_DTYPE.itemsize + 8,
                f"record {i} has non-zero reserved flag bits",
            ))
        # One pass finds the records no later than their predecessors: the
        # ties, and the first out-of-order record if there is one.
        ties = np.flatnonzero(t[1:] <= t[:-1])
        drops = ties[t[ties + 1] < t[ties]]
        if drops.size:
            p = int(drops[0]) + 1
            faults.append((
                HEADER.size + (base + p) * RECORD_DTYPE.itemsize,
                f"record {base + p} timestamp {int(t[p])} is before its "
                f"predecessor {int(t[p - 1])}",
            ))
        if faults:
            offset, message = min(faults)
            raise self._error(message, offset)
        return ties

    def _stream(self, t: np.ndarray, flags: np.ndarray, ties: np.ndarray) -> EventStream:
        sign = flags & _SIGN_BIT
        # With the reserved bits clear, the setting index is all that remains
        # of flags above the sign bit.
        setting_index = np.right_shift(flags, _SETTING_SHIFT, out=flags)
        if np.any(sign[ties] > sign[ties + 1]):
            # Equal-timestamp records with Minus before Plus: restore the
            # canonical order.  Files this package writes never need it.
            return make_stream(self.station, self.tick_resolution_ps, t, sign, setting_index)
        # Every check EventStream would repeat has been made, or holds by
        # construction: sign and setting_index are bit fields of flags.
        return EventStream(
            self.station, self.tick_resolution_ps, t, sign, setting_index, validate=False
        )


@contextmanager
def open_ttg(path) -> Iterator[TtgReader]:
    """Open a TTG1 file for chunked reading; raises TtgFormatError for a bad header or length."""
    with open(path, "rb") as fh:
        yield TtgReader(fh, path)


def read_ttg(path) -> EventStream:
    """Read and validate a whole TTG1 file: its chunks joined into one stream."""
    with open_ttg(path) as reader:
        chunks = list(reader.chunks())
    if len(chunks) == 1:
        return chunks[0]
    # An empty file has no chunk: the typed empty arrays give it its dtypes.
    t, sign, setting_index = (
        np.concatenate([np.empty(0, dtype)] + [getattr(c, name) for c in chunks])
        for name, dtype in (("t", np.uint64), ("sign", np.uint8), ("setting_index", np.uint8))
    )
    return EventStream(
        reader.station, reader.tick_resolution_ps, t, sign, setting_index, validate=False
    )
