"""Event-stream construction, TTG1 serialization, and stream generation."""

import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fairsample.coincidence import CoincidenceWindow, count_coincidences
from fairsample.detection import BlockCounts, EfficiencyConfig, SamplingPolicy, simulate_block
from fairsample.quantum import SettingsPair, SourceState, Station
from fairsample.timetags import (
    EventStream,
    TtgFormatError,
    generate_streams,
    make_stream,
    read_ttg,
    write_ttg,
)
from pair_oracle import OracleDetections, count_oracle

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
    write_ttg(s, path)
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(TtgFormatError, match="header needs 24") as err:
        read_ttg(path)
    assert err.value.offset == 0


def test_truncated_mid_record(tmp_path):
    s, _ = _valid_bytes(3)
    path = tmp_path / "t.ttg"
    write_ttg(s, path)
    # Keep the header, two full records, and 4 stray bytes of the third.
    path.write_bytes(path.read_bytes()[: HEADER_SIZE + 2 * RECORD_SIZE + 4])
    with pytest.raises(TtgFormatError, match="header promises 3 records but only 2") as err:
        read_ttg(path)
    assert err.value.offset == HEADER_SIZE + 2 * RECORD_SIZE


def test_missing_records_relative_to_count(tmp_path):
    s, _ = _valid_bytes(3)
    path = tmp_path / "t.ttg"
    write_ttg(s, path)
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
    write_ttg(s, path)
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


def test_read_keeps_canonical_file_order(tmp_path):
    s = _stream([1, 1, 4, 4, 4], [0, 1, 0, 0, 1], setting=[3, 2, 1, 0, 3])
    path = tmp_path / "c.ttg"
    write_ttg(s, path)
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
    a, b = generate_streams(det, 1e4, 1000, 0.0, seed=1)
    assert len(a) == 0 and len(b) == 0
    assert a.station == Station.ALICE and b.station == Station.BOB
    assert a.tick_resolution_ps == 1000


def test_generate_streams_single_pair_no_jitter():
    det = _detections([True], [True])
    a, b = generate_streams(det, 1e4, 1000, 0.0, seed=2)
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
    # of opposite signs, where the tie rule matters.
    streams = generate_streams(
        counts, 1e6, 10**6, 2.0, seed=12, dark_rate_hz=5e5
    )
    for s in streams:
        assert np.any((s.t[1:] == s.t[:-1]) & (s.sign[1:] != s.sign[:-1]))
        EventStream(s.station, s.tick_resolution_ps, s.t, s.sign, s.setting_index)


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
    assert np.intersect1d(a.t, b.t).shape == (1,)
    assert sorted(a.sign) == [0, 0] and sorted(b.sign) == [1, 1]


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


def test_generate_streams_orders_ties_like_make_stream():
    # 1 µs ticks at 10^5 pairs/s and 3·10^4 dark counts/s per channel:
    # many events share a tick, with both signs.
    n = 20_000
    rng = np.random.default_rng(8)
    det = _detections([True] * n, [True] * n, rng.integers(0, 2, n), rng.integers(0, 2, n))
    for stream in generate_streams(det, 1e5, 10**6, 0.3, seed=8, dark_rate_hz=3e4):
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
            with pytest.raises(ValueError, match="2\\*\\*63"):
                generate_streams(det, 0.5e-6, 1, 0.0, seed=seed)


def test_generate_streams_rejects_more_observed_pairs_than_emitted():
    # A hand-built block left at the default n_pairs_emitted = 0.
    counts = BlockCounts(1, 0, 0, 0, 1, 0, 1, 0)
    with pytest.raises(ValueError, match="n_pairs_emitted"):
        generate_streams(counts, 1e4, 1000, 0.0, seed=1)
    at_limit = BlockCounts(1, 0, 0, 0, 2, 0, 1, 1, n_pairs_emitted=3)
    a, b = generate_streams(at_limit, 1e4, 1000, 0.0, seed=1)
    assert len(a) == 2 and len(b) == 2
    with pytest.raises(ValueError, match="n_pairs_emitted"):
        generate_streams(dataclasses.replace(at_limit, n_pairs_emitted=2), 1e4, 1000, 0.0, seed=1)


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
@given(counts=block_counts(), jitter=st.sampled_from([0.0, 40.0]), seed=st.integers(0, 2**32 - 1))
def test_generate_streams_hold_the_singles(counts, jitter, seed):
    a, b = generate_streams(counts, 1e4, 1000, jitter, seed=seed)
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
    a, b = generate_streams(counts, 250.0, 1000, 0.0, seed=42)
    matched = count_coincidences(a, b, CoincidenceWindow(0))
    assert dataclasses.replace(matched, n_pairs_emitted=10**6) == counts
