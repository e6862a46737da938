"""Event-stream construction, TTG1 serialization, and stream generation."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fairsample.detection import PairDetections
from fairsample.quantum import Station
from fairsample.timetags import (
    BadMagic,
    EventStream,
    InvalidFlags,
    TrailingData,
    TruncatedFile,
    UnsortedTimestamps,
    UnsupportedVersion,
    generate_streams,
    make_stream,
    read_csv,
    read_ttg,
    write_csv,
    write_ttg,
)

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
    ev = s[0]
    assert (ev.t, ev.sign, ev.setting_index) == (3, 1, 2)


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


# ---------------------------------------------------------------------------
# TTG1 byte layout
# ---------------------------------------------------------------------------


def test_empty_stream_writes_header_only(tmp_path):
    path = tmp_path / "empty.ttg"
    n = write_ttg(_stream([], []), path)
    assert n == HEADER_SIZE
    assert path.stat().st_size == HEADER_SIZE


def test_header_and_record_bytes(tmp_path):
    path = tmp_path / "one.ttg"
    s = _stream([5], [1], setting=[2], station=Station.ALICE, tick=1000)
    n = write_ttg(s, path)
    assert n == HEADER_SIZE + RECORD_SIZE
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
    assert write_ttg(s, path) == HEADER_SIZE + 4 * RECORD_SIZE == path.stat().st_size


@settings(max_examples=60)
@given(s=streams())
def test_round_trip_and_reserialization(tmp_path_factory, s):
    path = tmp_path_factory.mktemp("ttg") / "s.ttg"
    write_ttg(s, path)
    first = path.read_bytes()
    back = read_ttg(path)
    assert _streams_equal(s, back)
    write_ttg(back, path)
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
        write_ttg(s, path)
        raw = bytearray(path.read_bytes())
        mutate(raw)
        path.write_bytes(bytes(raw))
        return path

    return build


def test_bad_magic(ttg_file):
    path = ttg_file(lambda raw: raw.__setitem__(slice(0, 4), b"XXXX"))
    with pytest.raises(BadMagic) as err:
        read_ttg(path)
    assert err.value.offset == 0


def test_unsupported_version(ttg_file):
    path = ttg_file(lambda raw: raw.__setitem__(4, 2))
    with pytest.raises(UnsupportedVersion) as err:
        read_ttg(path)
    assert err.value.offset == 4


def test_invalid_station_byte(ttg_file):
    path = ttg_file(lambda raw: raw.__setitem__(5, 7))
    with pytest.raises(InvalidFlags) as err:
        read_ttg(path)
    assert err.value.offset == 5


def test_nonzero_reserved_header_field(ttg_file):
    path = ttg_file(lambda raw: raw.__setitem__(6, 1))
    with pytest.raises(InvalidFlags) as err:
        read_ttg(path)
    assert err.value.offset == 6


def test_zero_tick_resolution_in_header(ttg_file):
    path = ttg_file(lambda raw: raw.__setitem__(slice(8, 16), (0).to_bytes(8, "little")))
    with pytest.raises(InvalidFlags) as err:
        read_ttg(path)
    assert err.value.offset == 8


def test_truncated_header(tmp_path):
    s, _ = _valid_bytes()
    path = tmp_path / "t.ttg"
    write_ttg(s, path)
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(TruncatedFile) as err:
        read_ttg(path)
    assert err.value.offset == 0


def test_truncated_mid_record(tmp_path):
    s, _ = _valid_bytes(3)
    path = tmp_path / "t.ttg"
    write_ttg(s, path)
    # Keep the header, two full records, and 4 stray bytes of the third.
    path.write_bytes(path.read_bytes()[: HEADER_SIZE + 2 * RECORD_SIZE + 4])
    with pytest.raises(TruncatedFile) as err:
        read_ttg(path)
    assert err.value.offset == HEADER_SIZE + 2 * RECORD_SIZE


def test_missing_records_relative_to_count(tmp_path):
    s, _ = _valid_bytes(3)
    path = tmp_path / "t.ttg"
    write_ttg(s, path)
    path.write_bytes(path.read_bytes()[: HEADER_SIZE + 2 * RECORD_SIZE])
    with pytest.raises(TruncatedFile) as err:
        read_ttg(path)
    assert err.value.offset == HEADER_SIZE + 2 * RECORD_SIZE


def test_trailing_data(ttg_file):
    path = ttg_file(lambda raw: raw.extend(b"\x00" * 5))
    with pytest.raises(TrailingData) as err:
        read_ttg(path)
    assert err.value.offset == HEADER_SIZE + 3 * RECORD_SIZE


def test_record_reserved_flag_bits(ttg_file):
    flag_offset = HEADER_SIZE + 1 * RECORD_SIZE + 8
    path = ttg_file(lambda raw: raw.__setitem__(flag_offset, raw[flag_offset] | 0x08))
    with pytest.raises(InvalidFlags) as err:
        read_ttg(path)
    assert err.value.offset == flag_offset


def test_unsorted_timestamps(ttg_file):
    # Drop the second record's timestamp below the first one's.
    t_offset = HEADER_SIZE + RECORD_SIZE
    path = ttg_file(lambda raw: raw.__setitem__(slice(t_offset, t_offset + 8), (1).to_bytes(8, "little")))
    with pytest.raises(UnsortedTimestamps) as err:
        read_ttg(path)
    assert err.value.offset == t_offset


def test_error_message_includes_offset(ttg_file):
    path = ttg_file(lambda raw: raw.__setitem__(slice(0, 4), b"NOPE"))
    with pytest.raises(BadMagic, match=r"at byte offset 0"):
        read_ttg(path)


def test_read_normalizes_equal_timestamp_sign_order(tmp_path):
    # A file whose equal-timestamp records arrive Minus-first is still
    # non-decreasing in t, so it parses; the stream comes back normalized.
    s = _stream([5, 5], [0, 1])
    path = tmp_path / "t.ttg"
    write_ttg(s, path)
    raw = bytearray(path.read_bytes())
    rec0 = raw[HEADER_SIZE : HEADER_SIZE + RECORD_SIZE]
    raw[HEADER_SIZE : HEADER_SIZE + RECORD_SIZE] = raw[HEADER_SIZE + RECORD_SIZE :]
    raw[HEADER_SIZE + RECORD_SIZE :] = rec0
    path.write_bytes(bytes(raw))
    back = read_ttg(path)
    assert list(back.sign) == [0, 1]


# ---------------------------------------------------------------------------
# CSV escape hatch
# ---------------------------------------------------------------------------


@settings(max_examples=25)
@given(s=streams(max_events=15))
def test_csv_round_trip(tmp_path_factory, s):
    path = tmp_path_factory.mktemp("csv") / "s.csv"
    write_csv(s, path)
    assert _streams_equal(s, read_csv(path))


def test_csv_empty_stream(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(_stream([], [], station=Station.BOB, tick=250), path)
    back = read_csv(path)
    assert back.station == Station.BOB
    assert back.tick_resolution_ps == 250
    assert len(back) == 0


# ---------------------------------------------------------------------------
# Stream generation from pair detections
# ---------------------------------------------------------------------------


def _detections(detected_a, detected_b, sign_a=None, sign_b=None):
    n = len(detected_a)
    if sign_a is None:
        sign_a = np.zeros(n, dtype=np.uint8)
    if sign_b is None:
        sign_b = np.ones(n, dtype=np.uint8)
    return PairDetections(
        index=np.arange(n, dtype=np.int64),
        sign_a=np.asarray(sign_a, dtype=np.uint8),
        sign_b=np.asarray(sign_b, dtype=np.uint8),
        detected_a=np.asarray(detected_a, dtype=bool),
        detected_b=np.asarray(detected_b, dtype=bool),
        n_pairs=n,
    )


def test_generate_streams_empty():
    det = _detections([], [])
    a, b = generate_streams(det, 1e4, 1000, 0.0, seed=1)
    assert len(a) == 0 and len(b) == 0
    assert a.station == Station.ALICE and b.station == Station.BOB
    assert a.tick_resolution_ps == 1000


def test_generate_streams_single_pair_no_jitter():
    det = _detections([True], [True])
    a, b = generate_streams(det, 1e4, 1000, 0.0, seed=2, setting_index=3)
    assert len(a) == len(b) == 1
    assert a.t[0] == b.t[0]
    assert a.setting_index[0] == 3 and b.setting_index[0] == 3


def test_generate_streams_mean_emission_gap():
    n = 100_000
    det = _detections([True] * n, [True] * n)
    a, _ = generate_streams(det, 1e4, 1000, 0.0, seed=3)
    gaps = np.diff(a.t.astype(np.int64))
    mean = float(np.mean(gaps))
    # Exponential gaps with mean 10^12/(tick_ps · rate) = 1e5 ticks.
    sigma_mean = 1e5 / math.sqrt(n - 1)
    assert mean == pytest.approx(1e5, abs=3 * sigma_mean)


def test_generate_streams_only_detected_events_appear():
    det = _detections([True, False, True], [False, True, True])
    a, b = generate_streams(det, 1e4, 1000, 0.0, seed=4)
    assert len(a) == 2 and len(b) == 2
    # Third pair is detected on both sides with zero jitter: shared tick.
    assert a.t[-1] == b.t[-1]


def test_generate_streams_dark_counts():
    n = 10_000
    det = _detections([False] * n, [False] * n)
    a, b = generate_streams(det, 1e4, 1000, 0.0, seed=5, dark_rate_hz=3000.0)
    # Duration is n/pair_rate = 1 s; two channels per station at 3 kHz each.
    lam = 2 * 3000.0
    for stream in (a, b):
        assert len(stream) == pytest.approx(lam, abs=4 * math.sqrt(lam))
        assert set(np.unique(stream.sign)) == {0, 1}


def test_generate_streams_deterministic():
    det = _detections([True] * 500, [True] * 500)
    a1, b1 = generate_streams(det, 1e4, 1000, 25.0, seed=6)
    a2, b2 = generate_streams(det, 1e4, 1000, 25.0, seed=6)
    assert _streams_equal(a1, a2) and _streams_equal(b1, b2)


def test_generate_streams_jitter_spreads_pair_offsets():
    n = 20_000
    det = _detections([True] * n, [True] * n)
    a, b = generate_streams(det, 1e3, 1000, 50.0, seed=7)
    dt = a.t.astype(np.int64) - b.t.astype(np.int64)
    # Two independent 50-tick jitters: offset spread is 50·√2 ticks.
    assert float(np.std(dt)) == pytest.approx(50.0 * math.sqrt(2.0), rel=0.05)
    assert abs(float(np.mean(dt))) < 5 * 50.0 * math.sqrt(2.0) / math.sqrt(n)
