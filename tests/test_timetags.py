"""Event-stream construction, TTG1 serialization, and stream generation."""

import contextlib
import dataclasses
import hashlib
import math
import struct
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy import stats

from fairsample import timetags
from fairsample.coincidence import CoincidenceWindow, count_coincidences
from fairsample.detection import (
    BlockCounts,
    EfficiencyConfig,
    PolicyKind,
    SamplingPolicy,
    simulate_block,
)
from fairsample.quantum import SettingsPair, SourceState, Station
from fairsample.timetags import (
    EventStream,
    TtgFormatError,
    generate_slices,
    make_stream,
    open_ttg,
    read_ttg,
    ttg_writer,
)
from pair_oracle import OracleDetections, count_oracle
from stream_helpers import joined_slices, write_stream

HEADER_SIZE = 24
RECORD_SIZE = 9


def _stream(t, sign, setting=None, station=Station.ALICE, tick=1000):
    t = np.asarray(t, dtype=np.uint64)
    sign = np.asarray(sign, dtype=np.uint8)
    if setting is None:
        setting = np.zeros_like(sign)
    return make_stream(station, tick, t, sign, np.asarray(setting, dtype=np.uint8))


@st.composite
def streams(draw, max_events=40):
    n = draw(st.integers(0, max_events))
    t = sorted(draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n)))
    sign = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    setting = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    station = draw(st.sampled_from(Station))
    tick = draw(st.integers(1, 10**9))
    return _stream(t, sign, setting, station=station, tick=tick)


def _streams_equal(a: EventStream, b: EventStream) -> bool:
    return (
        a.station == b.station
        and a.tick_resolution_ps == b.tick_resolution_ps
        and np.array_equal(a.t, b.t)
        and np.array_equal(a.sign, b.sign)
        and np.array_equal(a.setting_index, b.setting_index)
    )


# ---------------------------------------------------------------------------
# Stream construction and validation
# ---------------------------------------------------------------------------


def test_make_stream_orders_ties_plus_first():
    s = _stream([5, 5, 3], [1, 0, 1])
    assert list(s.t) == [3, 5, 5]
    assert list(s.sign) == [1, 0, 1]


def test_make_stream_sort_is_stable_within_channel():
    s = _stream([7, 7, 7], [0, 0, 1], setting=[2, 1, 0])
    assert list(s.setting_index) == [2, 1, 0]


def test_stream_indexing():
    s = _stream([3, 5], [1, 0], setting=[2, 1])
    assert len(s) == 2
    assert (s.t[0], s.sign[0], s.setting_index[0]) == (3, 1, 2)


def test_stream_rejects_decreasing_timestamps():
    with pytest.raises(ValueError):
        EventStream(
            Station.ALICE,
            1000,
            np.array([5, 4], dtype=np.uint64),
            np.array([0, 0], dtype=np.uint8),
            np.array([0, 0], dtype=np.uint8),
        )


def test_stream_rejects_minus_before_plus_tie():
    with pytest.raises(ValueError):
        EventStream(
            Station.ALICE,
            1000,
            np.array([5, 5], dtype=np.uint64),
            np.array([1, 0], dtype=np.uint8),
            np.array([0, 0], dtype=np.uint8),
        )


@pytest.mark.parametrize("sign, setting", [(2, 0), (0, 4)])
def test_stream_rejects_out_of_range_fields(sign, setting):
    with pytest.raises(ValueError):
        EventStream(
            Station.ALICE,
            1000,
            np.array([5], dtype=np.uint64),
            np.array([sign], dtype=np.uint8),
            np.array([setting], dtype=np.uint8),
        )


def test_stream_rejects_zero_tick_resolution():
    with pytest.raises(ValueError):
        _stream([1], [0], tick=0)


def test_make_stream_rejects_negative_and_fractional_timestamps():
    # A cast to uint64 would turn -1 into 2**64 - 1 and 1.5 into 1.
    zeros = np.zeros(2, dtype=np.uint8)
    with pytest.raises(ValueError, match="timestamps must be >= 0, got -1"):
        make_stream(Station.ALICE, 1000, np.array([5, -1]), zeros, zeros)
    with pytest.raises(ValueError, match="timestamps must be integers, got dtype float64"):
        make_stream(Station.ALICE, 1000, np.array([5.0, 1.5]), zeros, zeros)
    s = make_stream(Station.ALICE, 1000, np.array([5, 0]), zeros, zeros)
    assert list(s.t) == [0, 5]


# ---------------------------------------------------------------------------
# TTG1 byte layout
# ---------------------------------------------------------------------------


def test_empty_stream_writes_header_only(tmp_path):
    path = tmp_path / "empty.ttg"
    write_stream(_stream([], []), path)
    assert path.stat().st_size == HEADER_SIZE


def test_header_and_record_bytes(tmp_path):
    path = tmp_path / "one.ttg"
    s = _stream([5], [1], setting=[2], station=Station.ALICE, tick=1000)
    write_stream(s, path)
    assert path.stat().st_size == HEADER_SIZE + RECORD_SIZE
    raw = path.read_bytes()
    magic, version, station, reserved, tick, count = struct.unpack("<4sBBHQQ", raw[:HEADER_SIZE])
    assert magic == b"TTG1"
    assert version == 1
    assert station == 0
    assert reserved == 0
    assert tick == 1000
    assert count == 1
    # Record: little-endian u64 timestamp then the flags byte
    # (bit 0 = sign, bits 1-2 = setting index): Minus at setting 2 is 0b101.
    assert raw[HEADER_SIZE:] == bytes([5, 0, 0, 0, 0, 0, 0, 0, 0b0000_0101])


def test_byte_count_matches_file_size(tmp_path):
    s = _stream([1, 2, 3, 4], [0, 1, 0, 1])
    path = tmp_path / "four.ttg"
    write_stream(s, path)
    assert path.stat().st_size == HEADER_SIZE + 4 * RECORD_SIZE


@settings(max_examples=60)
@given(s=streams())
def test_round_trip_and_reserialization(tmp_path_factory, s):
    path = tmp_path_factory.mktemp("ttg") / "s.ttg"
    write_stream(s, path)
    first = path.read_bytes()
    back = read_ttg(path)
    assert _streams_equal(s, back)
    write_stream(back, path)
    assert path.read_bytes() == first


# ---------------------------------------------------------------------------
# TTG1 error reporting
# ---------------------------------------------------------------------------


def _valid_bytes(n_events=3):
    t = np.arange(10, 10 + n_events, dtype=np.uint64)
    sign = (np.arange(n_events) % 2).astype(np.uint8)
    return _stream(t, sign, station=Station.BOB, tick=500), n_events


@pytest.fixture
def ttg_file(tmp_path):
    def build(mutate, n_events=3):
        s, _ = _valid_bytes(n_events)
        path = tmp_path / "t.ttg"
        write_stream(s, path)
        raw = bytearray(path.read_bytes())
        mutate(raw)
        path.write_bytes(bytes(raw))
        return path

    return build


def test_bad_magic(ttg_file):
    path = ttg_file(lambda raw: raw.__setitem__(slice(0, 4), b"XXXX"))
    with pytest.raises(TtgFormatError, match="expected magic") as err:
        read_ttg(path)
    assert err.value.offset == 0


def test_unsupported_version(ttg_file):
    path = ttg_file(lambda raw: raw.__setitem__(4, 2))
    with pytest.raises(TtgFormatError, match="unsupported version 2") as err:
        read_ttg(path)
    assert err.value.offset == 4


def test_invalid_station_byte(ttg_file):
    path = ttg_file(lambda raw: raw.__setitem__(5, 7))
    with pytest.raises(TtgFormatError, match="station byte must be 0 or 1, got 7") as err:
        read_ttg(path)
    assert err.value.offset == 5


def test_nonzero_reserved_header_field(ttg_file):
    path = ttg_file(lambda raw: raw.__setitem__(6, 1))
    with pytest.raises(TtgFormatError, match="reserved header field must be 0") as err:
        read_ttg(path)
    assert err.value.offset == 6


def test_zero_tick_resolution_in_header(ttg_file):
    path = ttg_file(lambda raw: raw.__setitem__(slice(8, 16), (0).to_bytes(8, "little")))
    with pytest.raises(TtgFormatError, match="tick_resolution_ps must be > 0") as err:
        read_ttg(path)
    assert err.value.offset == 8


def test_truncated_header(tmp_path):
    s, _ = _valid_bytes()
    path = tmp_path / "t.ttg"
    write_stream(s, path)
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(TtgFormatError, match="header needs 24") as err:
        read_ttg(path)
    assert err.value.offset == 0


def test_truncated_mid_record(tmp_path):
    s, _ = _valid_bytes(3)
    path = tmp_path / "t.ttg"
    write_stream(s, path)
    # Keep the header, two full records, and 4 stray bytes of the third.
    path.write_bytes(path.read_bytes()[: HEADER_SIZE + 2 * RECORD_SIZE + 4])
    with pytest.raises(TtgFormatError, match="header promises 3 records but only 2") as err:
        read_ttg(path)
    assert err.value.offset == HEADER_SIZE + 2 * RECORD_SIZE


def test_missing_records_relative_to_count(tmp_path):
    s, _ = _valid_bytes(3)
    path = tmp_path / "t.ttg"
    write_stream(s, path)
    path.write_bytes(path.read_bytes()[: HEADER_SIZE + 2 * RECORD_SIZE])
    with pytest.raises(TtgFormatError, match="header promises 3 records but only 2") as err:
        read_ttg(path)
    assert err.value.offset == HEADER_SIZE + 2 * RECORD_SIZE


def test_trailing_data(ttg_file):
    path = ttg_file(lambda raw: raw.extend(b"\x00" * 5))
    with pytest.raises(TtgFormatError, match="5 unexpected bytes") as err:
        read_ttg(path)
    assert err.value.offset == HEADER_SIZE + 3 * RECORD_SIZE


def test_record_reserved_flag_bits(ttg_file):
    flag_offset = HEADER_SIZE + 1 * RECORD_SIZE + 8
    path = ttg_file(lambda raw: raw.__setitem__(flag_offset, raw[flag_offset] | 0x08))
    with pytest.raises(TtgFormatError, match="record 1 has non-zero reserved flag bits") as err:
        read_ttg(path)
    assert err.value.offset == flag_offset


def test_unsorted_timestamps(ttg_file):
    # Drop the second record's timestamp below the first one's.
    t_offset = HEADER_SIZE + RECORD_SIZE
    path = ttg_file(lambda raw: raw.__setitem__(slice(t_offset, t_offset + 8), (1).to_bytes(8, "little")))
    with pytest.raises(TtgFormatError, match="record 1 timestamp 1 is before its predecessor") as err:
        read_ttg(path)
    assert err.value.offset == t_offset


def test_error_message_includes_offset(ttg_file):
    path = ttg_file(lambda raw: raw.__setitem__(slice(0, 4), b"NOPE"))
    with pytest.raises(TtgFormatError, match=r"at byte offset 0"):
        read_ttg(path)


def test_read_normalizes_equal_timestamp_sign_order(tmp_path):
    # A file whose equal-timestamp records arrive Minus-first is still
    # non-decreasing in t, so it parses; the stream comes back normalized.
    s = _stream([5, 5], [0, 1])
    path = tmp_path / "t.ttg"
    write_stream(s, path)
    raw = bytearray(path.read_bytes())
    rec0 = raw[HEADER_SIZE : HEADER_SIZE + RECORD_SIZE]
    raw[HEADER_SIZE : HEADER_SIZE + RECORD_SIZE] = raw[HEADER_SIZE + RECORD_SIZE :]
    raw[HEADER_SIZE + RECORD_SIZE :] = rec0
    path.write_bytes(bytes(raw))
    back = read_ttg(path)
    assert list(back.sign) == [0, 1]


def test_read_reorders_minus_first_ties_with_their_settings(tmp_path):
    # Records (t, flags) written by hand: at t = 5 and t = 9 Minus comes
    # first.  Reading restores Plus before Minus, and each record's
    # setting index travels with its sign.
    records = [(5, 0b101), (5, 0b010), (7, 0b000), (9, 0b111), (9, 0b000), (9, 0b100)]
    raw = struct.pack("<4sBBHQQ", b"TTG1", 1, 0, 0, 1000, len(records))
    raw += b"".join(struct.pack("<QB", t, flags) for t, flags in records)
    path = tmp_path / "ties.ttg"
    path.write_bytes(raw)
    back = read_ttg(path)
    assert list(back.t) == [5, 5, 7, 9, 9, 9]
    assert list(back.sign) == [0, 1, 0, 0, 0, 1]
    assert list(back.setting_index) == [1, 2, 0, 0, 2, 3]


# A 40-record file, read whole and in chunks of 1, 7 and 16 records: each
# record-level defect, placed past the first chunk, on a chunk boundary or
# not, is reported at the same byte offset either way.
N_LONG = 40


def _record_defects(r):
    """(mutation of the file bytes, message, offset) per defect at record r."""
    at = HEADER_SIZE + r * RECORD_SIZE

    def set_t(raw, value):
        raw[at : at + 8] = value.to_bytes(8, "little")
        return raw

    def set_reserved(raw):
        raw[at + 8] |= 0x40
        return raw

    cut = f"header promises {N_LONG} records but only {r} are complete"
    return {
        "truncated-mid-record": (lambda raw: raw[: at + 4], cut, at),
        "missing-records": (lambda raw: raw[:at], cut, at),
        "reserved-flag-bits": (
            set_reserved, f"record {r} has non-zero reserved flag bits", at + 8,
        ),
        "unsorted": (
            lambda raw: set_t(raw, 1),
            f"record {r} timestamp 1 is before its predecessor {9 + r}", at,
        ),
    }


@pytest.mark.parametrize("chunk", [1, 7, 16])
@pytest.mark.parametrize("record", [28, 32, 39])
@pytest.mark.parametrize("defect", list(_record_defects(0)))
def test_record_defects_past_the_first_chunk(tmp_path, monkeypatch, defect, record, chunk):
    mutate, message, offset = _record_defects(record)[defect]
    path = tmp_path / "long.ttg"
    t = np.arange(10, 10 + N_LONG, dtype=np.uint64)
    write_stream(_stream(t, np.arange(N_LONG) % 2, station=Station.BOB, tick=500), path)
    path.write_bytes(bytes(mutate(bytearray(path.read_bytes()))))
    with pytest.raises(TtgFormatError, match=message) as whole:
        read_ttg(path)
    monkeypatch.setattr(timetags, "BLOCK", chunk)
    with pytest.raises(TtgFormatError, match=message) as chunked:
        read_ttg(path)
    assert whole.value.offset == chunked.value.offset == offset
    assert chunked.value.path == path


@pytest.mark.parametrize("chunk", [1, 7, 16])
def test_trailing_data_past_the_first_chunk(tmp_path, monkeypatch, chunk):
    path = tmp_path / "long.ttg"
    write_stream(_stream(np.arange(N_LONG, dtype=np.uint64), np.zeros(N_LONG)), path)
    path.write_bytes(path.read_bytes() + b"\x00" * 5)
    monkeypatch.setattr(timetags, "BLOCK", chunk)
    with pytest.raises(TtgFormatError, match="5 unexpected bytes") as err:
        read_ttg(path)
    assert err.value.offset == HEADER_SIZE + N_LONG * RECORD_SIZE


def test_reader_names_the_earliest_of_two_defects(tmp_path, monkeypatch):
    # Reserved bits at record 20 and an out-of-order timestamp at record 5:
    # the one nearer the start of the file is named, whatever the chunks.
    path = tmp_path / "two.ttg"
    write_stream(_stream(np.arange(10, 10 + N_LONG, dtype=np.uint64), np.zeros(N_LONG)), path)
    raw = bytearray(path.read_bytes())
    raw[HEADER_SIZE + 20 * RECORD_SIZE + 8] |= 0x80
    raw[HEADER_SIZE + 5 * RECORD_SIZE] = 0
    path.write_bytes(bytes(raw))
    for chunk in (timetags.BLOCK, 3):
        monkeypatch.setattr(timetags, "BLOCK", chunk)
        with pytest.raises(TtgFormatError, match="record 5 timestamp") as err:
            read_ttg(path)
        assert err.value.offset == HEADER_SIZE + 5 * RECORD_SIZE


@pytest.mark.parametrize("chunk", [1, 2, 3, 4])
def test_read_reorders_a_minus_first_tie_that_straddles_chunks(tmp_path, monkeypatch, chunk):
    # Records (t, flags) written by hand: the run at t = 9, records 2 to 5,
    # is stored Minus first and crosses a chunk boundary at every chunk
    # size.  Its Plus record moves to the front; the Minus records keep
    # their order, each with its setting index.
    records = [(5, 0b000), (7, 0b001), (9, 0b101), (9, 0b011), (9, 0b001), (9, 0b100),
               (12, 0b000)]
    raw = struct.pack("<4sBBHQQ", b"TTG1", 1, 0, 0, 1000, len(records))
    raw += b"".join(struct.pack("<QB", t, flags) for t, flags in records)
    path = tmp_path / "ties.ttg"
    path.write_bytes(raw)
    monkeypatch.setattr(timetags, "BLOCK", chunk)
    back = read_ttg(path)
    assert list(back.t) == [5, 7, 9, 9, 9, 9, 12]
    assert list(back.sign) == [0, 1, 0, 1, 1, 1, 0]
    assert list(back.setting_index) == [0, 0, 2, 2, 1, 0, 0]
    with open_ttg(path) as reader:
        assert len(reader) == len(records)
        chunks = list(reader.chunks())
    # A run of equal timestamps is never split between chunks.
    assert all(c.t[-1] < d.t[0] for c, d in zip(chunks, chunks[1:]))


def test_read_keeps_canonical_file_order(tmp_path):
    s = _stream([1, 1, 4, 4, 4], [0, 1, 0, 0, 1], setting=[3, 2, 1, 0, 3])
    path = tmp_path / "c.ttg"
    write_stream(s, path)
    assert _streams_equal(read_ttg(path), s)


def _memory_owner(array):
    """The object that holds an array's memory: None when it owns it."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array.base


@pytest.mark.parametrize("sign", [[0, 1, 0, 1, 1], [1, 0, 0, 1, 0]], ids=["canonical", "ties-reordered"])
def test_read_returns_contiguous_arrays_that_own_their_memory(tmp_path, sign):
    records = [(t, s | (k % 4) << 1) for k, (t, s) in enumerate(zip([2, 2, 6, 6, 9], sign))]
    raw = struct.pack("<4sBBHQQ", b"TTG1", 1, 1, 0, 1000, len(records))
    raw += b"".join(struct.pack("<QB", t, flags) for t, flags in records)
    path = tmp_path / "r.ttg"
    path.write_bytes(raw)
    back = read_ttg(path)
    for array in (back.t, back.sign, back.setting_index):
        assert array.flags["C_CONTIGUOUS"]
        # Not a view into the bytes read from the file.
        assert _memory_owner(array) is None
    assert back.t.dtype == np.uint64
    assert back.sign.dtype == back.setting_index.dtype == np.uint8
    assert list(back.sign[:4]) == [0, 1, 0, 1]


def test_writer_appends_chunks_into_the_file_one_append_writes(tmp_path):
    s = _stream(np.arange(0, 60, 3), np.arange(20) % 2, setting=np.arange(20) % 4)
    write_stream(s, tmp_path / "whole.ttg")
    with ttg_writer(tmp_path / "parts.ttg", s.station, s.tick_resolution_ps) as writer:
        for k in range(0, 21, 6):
            writer.append(dataclasses.replace(
                s, t=s.t[k : k + 6], sign=s.sign[k : k + 6],
                setting_index=s.setting_index[k : k + 6],
            ))
    assert writer.count == 20
    assert (tmp_path / "parts.ttg").read_bytes() == (tmp_path / "whole.ttg").read_bytes()


def _reference_records(s):
    """The records of ``s`` packed at once in a structured array."""
    records = np.empty(len(s), dtype=timetags.RECORD_DTYPE)
    records["t"] = s.t
    records["flags"] = s.sign | (s.setting_index << 1)
    return records.tobytes()


@pytest.mark.parametrize("length", [0, 1, 4, 5, 6, 17])
def test_writer_packs_records_across_its_buffer_borders(tmp_path, monkeypatch, length):
    # A buffer of L = 5 records: lengths 0, 1, L - 1, L, L + 1 and 3L + 2.
    monkeypatch.setattr(timetags, "_WRITE_RECORDS", 5)
    rng = np.random.default_rng(length)
    t = np.cumsum(rng.integers(1, 2**40, length, dtype=np.uint64), dtype=np.uint64)
    k = np.arange(length)
    s = _stream(t, k % 2, setting=1 + k % 3)
    path = tmp_path / "w.ttg"
    with ttg_writer(path, s.station, s.tick_resolution_ps) as writer:
        writer.append(s)
        writer.append(_stream([], []))
    raw = path.read_bytes()
    assert raw[:24] == struct.pack("<4sBBHQQ", b"TTG1", 1, 0, 0, 1000, length)
    assert raw[24:] == _reference_records(s)
    assert writer.count == length
    assert _streams_equal(read_ttg(path), s)


@pytest.mark.parametrize(
    "station, tick", [(Station.BOB, 500), (Station.BOB, 1000), (Station.ALICE, 500)]
)
def test_writer_refuses_a_stream_that_does_not_fit_its_header(tmp_path, station, tick):
    # The records carry neither station nor tick resolution: such a stream
    # would read back as Alice's at 1000 ps.
    s = _stream([1, 2], [0, 1], station=station, tick=tick)
    with pytest.raises(ValueError, match="does not fit a file of ALICE at 1000 ps"):
        with ttg_writer(tmp_path / "x.ttg", Station.ALICE, 1000) as writer:
            writer.append(s)
    assert not list(tmp_path.iterdir())


def test_writer_leaves_no_file_when_its_block_fails(tmp_path):
    with pytest.raises(OSError, match="disk full"):
        with ttg_writer(tmp_path / "x.ttg", Station.ALICE, 1000) as writer:
            writer.append(_stream([1, 2], [0, 1]))
            raise OSError("disk full")
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# Stream generation from block counts
# ---------------------------------------------------------------------------


def _detections(detected_a, detected_b, sign_a=None, sign_b=None):
    """Block counts of the given pairs, every one of them emitted."""
    n = len(detected_a)
    sign_a = np.zeros(n, np.uint8) if sign_a is None else np.asarray(sign_a, np.uint8)
    sign_b = np.ones(n, np.uint8) if sign_b is None else np.asarray(sign_b, np.uint8)
    return count_oracle(
        OracleDetections(
            sign_a, sign_b, np.asarray(detected_a, bool), np.asarray(detected_b, bool)
        )
    )


def test_generate_streams_empty():
    det = _detections([], [])
    a, b = joined_slices(det, 1e4, 1000, 0.0, seed=1)
    assert len(a) == 0 and len(b) == 0
    assert a.station == Station.ALICE and b.station == Station.BOB
    assert a.tick_resolution_ps == 1000


def test_generate_streams_single_pair_no_jitter():
    det = _detections([True], [True])
    a, b = joined_slices(det, 1e4, 1000, 0.0, seed=2)
    assert len(a) == len(b) == 1
    assert a.t[0] == b.t[0]
    assert a.setting_index[0] == 0 and b.setting_index[0] == 0


def test_generate_streams_pass_full_validation():
    # Streams are built without EventStream's scans; building them again
    # with the scans must accept the same arrays.
    counts = simulate_block(
        SourceState(p=1.0),
        EfficiencyConfig(0.6, 0.5, 0.55, 0.65),
        SamplingPolicy(),
        SettingsPair(alpha=0.3, beta=1.1),
        20_000,
        seed=11,
    )
    # Coarse ticks, wide jitter and dark counts make many equal timestamps
    # of opposite signs, where the tie rule matters.  In slices of 2**10
    # observed pairs the ties also fall across slice borders.
    for block in (timetags.BLOCK, 1 << 10):
        with mock.patch.object(timetags, "BLOCK", block):
            streams = joined_slices(
                counts, 1e6, 10**6, 2.0, seed=12, dark_rate_hz=5e5
            )
        for s in streams:
            assert np.any((s.t[1:] == s.t[:-1]) & (s.sign[1:] != s.sign[:-1]))
            EventStream(s.station, s.tick_resolution_ps, s.t, s.sign, s.setting_index)


def test_generate_streams_mean_emission_gap():
    n = 100_000
    det = _detections([True] * n, [True] * n)
    a, _ = joined_slices(det, 1e4, 1000, 0.0, seed=3)
    gaps = np.diff(a.t.astype(np.int64))
    mean = float(np.mean(gaps))
    # Exponential gaps with mean 10^12/(tick_ps · rate) = 1e5 ticks.
    sigma_mean = 1e5 / math.sqrt(n - 1)
    assert mean == pytest.approx(1e5, abs=3 * sigma_mean)


def test_generate_streams_only_detected_events_appear():
    det = _detections([True, False, True], [False, True, True])
    a, b = joined_slices(det, 1e4, 1000, 0.0, seed=4)
    assert len(a) == 2 and len(b) == 2
    # Third pair is detected on both sides with zero jitter: shared tick.
    assert np.intersect1d(a.t, b.t).shape == (1,)
    assert sorted(a.sign) == [0, 0] and sorted(b.sign) == [1, 1]


def test_generate_streams_dark_counts():
    n = 10_000
    det = _detections([False] * n, [False] * n)
    a, b = joined_slices(det, 1e4, 1000, 0.0, seed=5, dark_rate_hz=3000.0)
    # Duration is n/pair_rate = 1 s; two channels per station at 3 kHz each.
    lam = 2 * 3000.0
    for stream in (a, b):
        assert len(stream) == pytest.approx(lam, abs=4 * math.sqrt(lam))
        assert set(np.unique(stream.sign)) == {0, 1}


def test_generate_streams_dark_counts_in_many_slices(monkeypatch):
    # 10 000 pairs seen at both stations make 10 slices of at most 2**10.
    # Alice's pair events are all Plus, so her Minus events are the dark
    # counts of one channel: Poisson with mean 3000 over D = 1 s, and
    # uniform over [0, D) across the slice borders.
    monkeypatch.setattr(timetags, "BLOCK", 1 << 10)
    n = 10_000
    det = _detections([True] * n, [True] * n)
    a, _ = joined_slices(det, 1e4, 1000, 0.0, seed=9, dark_rate_hz=3000.0)
    dark = a.t[a.sign == 1].astype(np.float64)
    assert dark.shape[0] == pytest.approx(3000.0, abs=4 * math.sqrt(3000.0))
    assert stats.kstest(dark / 1e9, "uniform").pvalue > 1e-3


def test_generate_streams_deterministic():
    det = _detections([True] * 500, [True] * 500)
    a1, b1 = joined_slices(det, 1e4, 1000, 25.0, seed=6)
    a2, b2 = joined_slices(det, 1e4, 1000, 25.0, seed=6)
    assert _streams_equal(a1, a2) and _streams_equal(b1, b2)


def test_generate_streams_jitter_spreads_pair_offsets():
    n = 20_000
    det = _detections([True] * n, [True] * n)
    a, b = joined_slices(det, 1e3, 1000, 50.0, seed=7)
    dt = a.t.astype(np.int64) - b.t.astype(np.int64)
    # Two independent 50-tick jitters: offset spread is 50·√2 ticks.
    assert float(np.std(dt)) == pytest.approx(50.0 * math.sqrt(2.0), rel=0.05)
    assert abs(float(np.mean(dt))) < 5 * 50.0 * math.sqrt(2.0) / math.sqrt(n)


def test_generate_streams_orders_ties_like_make_stream():
    # 1 µs ticks at 10^5 pairs/s and 3·10^4 dark counts/s per channel:
    # many events share a tick, with both signs.
    n = 20_000
    rng = np.random.default_rng(8)
    det = _detections([True] * n, [True] * n, rng.integers(0, 2, n), rng.integers(0, 2, n))
    for stream in joined_slices(det, 1e5, 10**6, 0.3, seed=8, dark_rate_hz=3e4):
        assert np.count_nonzero(np.diff(stream.t) == 0) > 1000
        perm = rng.permutation(len(stream))
        again = make_stream(
            stream.station, stream.tick_resolution_ps,
            stream.t[perm], stream.sign[perm], stream.setting_index[perm],
        )
        assert _streams_equal(stream, again)


def test_generate_streams_rejects_times_beyond_2_63_ticks():
    # Twenty pairs, all seen at both stations, at a mean gap of 2·10^18
    # ticks: the latest of them lies near 4·10^19 ticks.  Seeds 0 and 3 put
    # times past 2**64, where a float-to-uint64 cast is undefined: the bound
    # must hold before the cast, without a warning.
    det = _detections([True] * 20, [True] * 20)
    for seed in (0, 3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^n_pairs_emitted must keep the emission clock"):
                joined_slices(det, 0.5e-6, 1, 0.0, seed=seed)


@pytest.mark.parametrize("name, value", [
    ("pair_rate_hz", math.nan), ("pair_rate_hz", math.inf),
    ("jitter_sd_ticks", math.nan), ("jitter_sd_ticks", math.inf),
    ("dark_rate_hz", math.nan), ("dark_rate_hz", math.inf),
])
def test_generate_streams_rejects_non_finite_parameters(name, value):
    # Each once gave a wrong stream or a misleading error: no dark counts
    # for a NaN dark rate, every event at tick 0 for an infinite pair rate.
    args = {"pair_rate_hz": 1e4, "jitter_sd_ticks": 50.0, "dark_rate_hz": 10.0, name: value}
    det = _detections([True] * 20, [True] * 20)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        joined_slices(det, tick_resolution_ps=1000, seed=1, **args)


@pytest.mark.parametrize("n, rate, jitter, dark_rate, name", [
    # 10**6 pairs at 10 Hz last 10**5 s, 10**17 ticks of 1 ps: past 2**53,
    # where float64 times fall on a lattice of 16 ticks.
    (10**6, 10.0, 50.0, 0.0, "n_pairs_emitted"),
    # A clock of 10**12 ticks, and a hold-back reach of 120 SD + 1 past 2**53.
    (1000, 1e3, 2**53 / 120, 0.0, "jitter_sd_ticks"),
    # 2 * rate * 1 s, just over 2**32 dark counts per station.
    (1000, 1e3, 50.0, 2.0**31 + 1, "dark_rate_hz"),
])
def test_generate_streams_rejects_times_float64_cannot_hold(
    monkeypatch, n, rate, jitter, dark_rate, name
):
    # Refused from the parameters alone: no generator is made, so nothing is
    # drawn or allocated.
    def no_rng(seed):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    counts = BlockCounts(1, 0, 0, 0, 1, 0, 1, 0, n_pairs_emitted=n)
    with pytest.raises(ValueError, match=f"^{name} must keep"):
        joined_slices(counts, rate, 1, jitter, seed=1, dark_rate_hz=dark_rate)


def test_generate_streams_rejects_more_observed_pairs_than_emitted():
    # A hand-built block left at the default n_pairs_emitted = 0.
    counts = BlockCounts(1, 0, 0, 0, 1, 0, 1, 0)
    with pytest.raises(ValueError, match="n_pairs_emitted"):
        joined_slices(counts, 1e4, 1000, 0.0, seed=1)
    at_limit = BlockCounts(1, 0, 0, 0, 2, 0, 1, 1, n_pairs_emitted=3)
    a, b = joined_slices(at_limit, 1e4, 1000, 0.0, seed=1)
    assert len(a) == 2 and len(b) == 2
    with pytest.raises(ValueError, match="n_pairs_emitted"):
        joined_slices(dataclasses.replace(at_limit, n_pairs_emitted=2), 1e4, 1000, 0.0, seed=1)


@st.composite
def block_counts(draw):
    """Small consistent block counts: eight class sizes plus unseen pairs."""
    coinc = draw(st.lists(st.integers(0, 30), min_size=4, max_size=4))
    only_a = draw(st.lists(st.integers(0, 30), min_size=2, max_size=2))
    only_b = draw(st.lists(st.integers(0, 30), min_size=2, max_size=2))
    unseen = draw(st.integers(0, 50))
    n_pp, n_pm, n_mp, n_mm = coinc
    return BlockCounts(
        n_pp, n_pm, n_mp, n_mm,
        s_a_plus=n_pp + n_pm + only_a[0],
        s_a_minus=n_mp + n_mm + only_a[1],
        s_b_plus=n_pp + n_mp + only_b[0],
        s_b_minus=n_pm + n_mm + only_b[1],
        n_pairs_emitted=sum(coinc) + sum(only_a) + sum(only_b) + unseen,
    )


@settings(max_examples=100)
@given(
    counts=block_counts(), jitter=st.sampled_from([0.0, 40.0]),
    seed=st.integers(0, 2**32 - 1), block=st.sampled_from([1, 7, 64, timetags.BLOCK]),
)
def test_generate_streams_hold_the_singles(counts, jitter, seed, block):
    with mock.patch.object(timetags, "BLOCK", block):
        a, b = joined_slices(counts, 1e4, 1000, jitter, seed=seed)
    for s in (a, b):
        EventStream(s.station, s.tick_resolution_ps, s.t, s.sign, s.setting_index)
    assert (np.count_nonzero(a.sign == 0), np.count_nonzero(a.sign == 1)) == (
        counts.s_a_plus, counts.s_a_minus,
    )
    assert (np.count_nonzero(b.sign == 0), np.count_nonzero(b.sign == 1)) == (
        counts.s_b_plus, counts.s_b_minus,
    )


def test_generate_streams_reproduce_block_counts():
    # The quick-start point at alpha = 30 degrees: 10^6 pairs at 250 Hz and
    # 1 ns ticks, so unrelated events almost never share a tick.  Without
    # jitter, matching at window 0 finds exactly the block's coincidences.
    eff = EfficiencyConfig(0.10, 0.05, 0.08, 0.08)
    s = SettingsPair(math.radians(30.0), 0.0)
    counts = simulate_block(SourceState(1.0), eff, SamplingPolicy(), s, 10**6, seed=41)
    a, b = joined_slices(counts, 250.0, 1000, 0.0, seed=42)
    matched = count_coincidences(a, b, CoincidenceWindow(0))
    assert dataclasses.replace(matched, n_pairs_emitted=10**6) == counts


def _dense_counts(n_pairs, seed):
    return simulate_block(
        SourceState(1.0), EfficiencyConfig(0.6, 0.5, 0.55, 0.65),
        SamplingPolicy(PolicyKind.UNFAIR_MALUS, 0.5), SettingsPair(0.3, 1.1), n_pairs,
        seed=seed,
    )


def test_one_slice_draws_as_sampler_5():
    # 47 174 observed pairs make one slice: its streams are pinned as the
    # generator of sampler 5 first drew them.
    counts = _dense_counts(100_000, seed=21)
    digest = hashlib.sha256()
    for s in joined_slices(counts, 1e6, 1000, 50.0, seed=22, dark_rate_hz=2e5):
        digest.update(s.t.tobytes() + s.sign.tobytes() + s.setting_index.tobytes())
    assert digest.hexdigest() == (
        "c36bc722bc87a73186ebb6b41a4e3954c1449141fb4ea1a59ca1ae13eb9493ce"
    )


# A dense block in six slices of BLOCK observed pairs, with dark counts.
_MULTI_SLICE = (_dense_counts(2_000_000, seed=31), 1e6, 1000, 50.0, 32, 2e5)


def test_many_slices_draw_as_sampler_5():
    # Six slices, each with held-back events and dark counts: the streams
    # are pinned as the generator of sampler 5 first drew them.
    digest = hashlib.sha256()
    for s in joined_slices(*_MULTI_SLICE):
        digest.update(s.t.tobytes() + s.sign.tobytes() + s.setting_index.tobytes())
    assert digest.hexdigest() == (
        "3be9a752d8c27fde2b6d1bf6fcbfe5f1a5531efb68b21c674e81e878932a430f"
    )


@pytest.mark.parametrize("jitter, want", [
    (50.0, "48b17cafbbafb2df691dbb3e80536035876387192fff3be985986413628afff6"),
    (0.0, "731e8c982120520d0300fcaec4425f34f3d195886934a3f5fd0c5bd7a91fd3f4"),
], ids=["jitter-50", "jitter-0"])
def test_many_slices_without_dark_counts_draw_as_sampler_5(jitter, want):
    # The six slices of _MULTI_SLICE at dark rate 0, so that a draw taken
    # between slices of a dark-free run shows.  Pinned as sampler 5 drew
    # them before its dark-count draws lost their guards.
    counts, rate, tick, _, seed, _ = _MULTI_SLICE
    digest = hashlib.sha256()
    for s in joined_slices(counts, rate, tick, jitter, seed, 0.0):
        digest.update(s.t.tobytes() + s.sign.tobytes() + s.setting_index.tobytes())
    assert digest.hexdigest() == want


def test_slices_of_both_key_widths_draw_as_sampler_5(monkeypatch):
    # Five pairs at 1 kHz and 1 ps ticks last D = 5 * 10**9 ticks, and dark
    # counts at 2 * 10**5 Hz a channel, about 2000 a station, make ten
    # slices of at most 200.  Seed 8 draws tau = 2.6 * 10**9: the first
    # nine slices span tau / 10 each and sort 32-bit keys, and the last one,
    # which reaches to D, spans over 2**31 ticks, so that its keys
    # 2(t - origin) + sign need 64 bits.  The streams are pinned as the
    # generator of sampler 5 first drew them, with 64-bit keys only.
    monkeypatch.setattr(timetags, "BLOCK", 200)
    det = _detections([True] * 5, [True] * 5, [0, 1, 1, 0, 1], [1, 1, 0, 0, 0])
    slices = list(generate_slices(det, 1e3, 1, 50.0, 8, dark_rate_hz=2e5))
    digest = hashlib.sha256()
    for s in slices:
        digest.update(s.t.tobytes() + s.sign.tobytes() + s.setting_index.tobytes())
    assert digest.hexdigest() == (
        "f4a9b460cdf03d97232c0f318ed66beefcd758e82f446e0447269e10f7bbaddb"
    )
    for mine in (slices[0::2], slices[1::2]):
        spans = [int(s.t[-1]) - int(s.t[0]) for s in mine]
        assert len(spans) == 10
        assert max(spans[:-1]) < 2**30 and spans[-1] > 2**31


def test_keys_past_2_53_ticks_draw_as_sampler_5():
    # Twenty pairs on a clock just under 2**53 ticks make one slice, and
    # seed 6 draws a horizon past 2**53, where every float time is even.
    # The slice spans far more than 2**31 ticks, so its keys are 64-bit and
    # count from 0: a float time past 2**53 less an odd lowest time would
    # round.  The streams are pinned as the generator of sampler 5 first
    # drew them.
    n = 20
    det = _detections([True] * n, [True] * n, [0, 1] * 10, [1, 1, 0, 0] * 5)
    alice, bob = generate_slices(det, n * 1e12 / (2**53 - 10**5), 1, 50.0, 6)
    assert int(alice.t[-1]) > 2**53
    digest = hashlib.sha256()
    for s in (alice, bob):
        digest.update(s.t.tobytes() + s.sign.tobytes())
    assert digest.hexdigest() == (
        "33d8c2e21da9cc43cb579686bd7dd416e949fd132a399ddac62f6e7c664df0de"
    )


@contextlib.contextmanager
def _traced_peak():
    """Trace allocations in the block; the yielded list gets the peak in bytes."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    peak = []
    try:
        yield peak
        peak.append(tracemalloc.get_traced_memory()[1])
    finally:
        if started:
            tracemalloc.stop()


def test_generate_slices_working_set_is_bounded():
    # Each stream is dropped before the next is made, as the pipeline does.
    # About 5.0 MB at 2**18 pairs a slice.  Alice's finished stream, held
    # while Bob's keys were built, made it 6.8 MB, and a slice's
    # concatenated copies before one buffer of keys per station 11.4 MB.
    with _traced_peak() as peak:
        for s in generate_slices(*_MULTI_SLICE):
            del s
    assert peak[0] < 6e6


def test_generate_slices_into_files_working_set_is_bounded(tmp_path):
    # Generation and writing together, as the pipeline simulates a point:
    # about 5.1 MB.  Yielding a slice's two streams at once and packing a
    # copy of each whole stream to write it made it 9.8 MB.
    with _traced_peak() as peak:
        with ttg_writer(tmp_path / "a.ttg", Station.ALICE, 1000) as wa, \
                ttg_writer(tmp_path / "b.ttg", Station.BOB, 1000) as wb:
            writers = {Station.ALICE: wa, Station.BOB: wb}
            for s in generate_slices(*_MULTI_SLICE):
                writers[s.station].append(s)
                del s
    assert wa.count > 10**6 and wb.count > 10**6
    assert peak[0] < 7e6


def test_generate_slices_spread_the_dark_counts_over_slices():
    # 10**6 emitted pairs, none observed, and 4 * 10**6 expected dark counts
    # per station: the dark counts set 16 slices, about 2**18 a slice, each
    # yielded as Alice's stream and then Bob's.  In the one slice the
    # observed pairs alone set, they traced 104 MB.
    counts = BlockCounts(0, 0, 0, 0, 0, 0, 0, 0, n_pairs_emitted=10**6)
    stations = []
    with _traced_peak() as peak:
        for s in generate_slices(counts, 1e6, 1000, 50.0, 7, dark_rate_hz=2e6):
            stations.append(s.station)
            del s
    assert stations == [Station.ALICE, Station.BOB] * 16
    assert peak[0] < 8e6


def test_count_coincidences_on_files_working_set_is_bounded(tmp_path):
    # About 12.8 MB; the chunks the readers and the matcher's selection
    # kept after handing them on, and a block's merge arrays kept past
    # their use, made it 26.5 MB.
    paths = tmp_path / "a.ttg", tmp_path / "b.ttg"
    with ttg_writer(paths[0], Station.ALICE, 1000) as wa, \
            ttg_writer(paths[1], Station.BOB, 1000) as wb:
        writers = {Station.ALICE: wa, Station.BOB: wb}
        for s in generate_slices(*_MULTI_SLICE):
            writers[s.station].append(s)
    with open_ttg(paths[0]) as ra, open_ttg(paths[1]) as rb:
        with _traced_peak() as peak:
            counts = count_coincidences(ra, rb, CoincidenceWindow(500))
    assert counts.total_coincidences > 10**6
    assert peak[0] < 17e6


def test_generate_slices_join_into_the_whole_streams(monkeypatch):
    # 1 µs ticks at 1 MHz: about one pair per tick, with jitter and dark
    # counts, so slice borders fall among ties of both signs.
    monkeypatch.setattr(timetags, "BLOCK", 1000)
    counts = _dense_counts(20_000, seed=23)
    observed = counts.total_singles - counts.total_coincidences
    args = (counts, 1e6, 10**6, 2.0, 24, 3e5)
    slices = list(generate_slices(*args))
    n_slices = -(-observed // 1000)
    assert n_slices > 10
    # Each slice yields Alice's stream, then Bob's.
    assert [s.station for s in slices] == [Station.ALICE, Station.BOB] * n_slices
    whole = joined_slices(*args)
    for k, station in enumerate((Station.ALICE, Station.BOB)):
        t = np.concatenate([s.t for s in slices[k::2]])
        sign = np.concatenate([s.sign for s in slices[k::2]])
        joined = EventStream(station, 10**6, t, sign, np.zeros_like(sign))
        assert _streams_equal(joined, whole[k])


def test_generate_slices_hold_back_keeps_jittered_events_in_order(monkeypatch):
    # Slices of 100 pairs last about 1000 ticks, and a jitter SD of 10**4
    # ticks moves events across many of them.  The hold-back keeps the
    # streams sorted; without it, the first misplaced event raises.
    det = _detections([True] * 2000, [True] * 2000)
    monkeypatch.setattr(timetags, "BLOCK", 100)
    a, b = joined_slices(det, 1e8, 1000, 1e4, seed=25)
    for s in (a, b):
        EventStream(s.station, s.tick_resolution_ps, s.t, s.sign, s.setting_index)
    monkeypatch.setattr(timetags, "_HOLD_BACK_SD", 0.0)
    with pytest.raises(RuntimeError, match="hold-back"):
        joined_slices(det, 1e8, 1000, 1e4, seed=25)
