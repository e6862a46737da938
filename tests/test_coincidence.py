"""Windowed coincidence matching: fast engine, exhaustive oracle, counting."""

import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fairsample import coincidence, timetags
from fairsample.coincidence import (
    CoincidenceWindow,
    count_coincidences,
    count_coincidences_naive,
    match_events,
    match_events_naive,
)
from fairsample.detection import (
    EfficiencyConfig,
    PolicyKind,
    SamplingPolicy,
    simulate_block,
)
from fairsample.quantum import SettingsPair, SourceState, Station
from fairsample.timetags import generate_streams, make_stream, open_ttg, write_ttg

U64_MAX = 2**64 - 1


def _t(values):
    return np.asarray(values, dtype=np.uint64)


def _stream(t, sign, setting=None, station=Station.ALICE, tick=1000):
    t = _t(t)
    sign = np.asarray(sign, dtype=np.uint8)
    if setting is None:
        setting = np.zeros_like(sign)
    return make_stream(station, tick, t, sign, np.asarray(setting, dtype=np.uint8))


sorted_times = st.lists(st.integers(0, 5000), min_size=0, max_size=60).map(sorted)
windows = st.integers(0, 300).map(CoincidenceWindow)


# ---------------------------------------------------------------------------
# match_events: pinned behavior
# ---------------------------------------------------------------------------


def test_match_empty_inputs():
    ia, ib = match_events(_t([]), _t([1, 2]), CoincidenceWindow(5))
    assert len(ia) == 0 and len(ib) == 0


def test_match_window_is_inclusive():
    ia, ib = match_events(_t([100]), _t([110]), CoincidenceWindow(10))
    assert list(ia) == [0] and list(ib) == [0]
    ia, ib = match_events(_t([100]), _t([111]), CoincidenceWindow(10))
    assert len(ia) == 0


def test_match_prefers_earliest_partner_not_nearest():
    # B at 95 is further from A=100 than B at 104, but it comes first in time
    # and is inside the window, so it wins; 104 stays unmatched.
    ia, ib = match_events(_t([100]), _t([95, 104]), CoincidenceWindow(10))
    assert list(ia) == [0]
    assert list(ib) == [0]


def test_match_consumes_partners_one_to_one():
    ia, ib = match_events(_t([100, 101]), _t([100]), CoincidenceWindow(5))
    assert list(ia) == [0]
    assert list(ib) == [0]


def test_match_skips_expired_b_events():
    ia, ib = match_events(_t([100, 200, 300]), _t([105, 450]), CoincidenceWindow(10))
    assert list(ia) == [0]
    assert list(ib) == [0]


def test_match_near_u64_max():
    ia, ib = match_events(_t([U64_MAX - 1]), _t([U64_MAX]), CoincidenceWindow(1))
    assert len(ia) == 1
    ia, ib = match_events(_t([U64_MAX - 1]), _t([U64_MAX]), CoincidenceWindow(0))
    assert len(ia) == 0


def test_match_huge_window_no_overflow():
    ia, ib = match_events(_t([0, U64_MAX]), _t([2**63]), CoincidenceWindow(2**63))
    assert list(ia) == [0]


def test_match_rejects_unsorted_input():
    with pytest.raises(ValueError, match="t_a is not sorted"):
        match_events(_t([5, 3]), _t([1]), CoincidenceWindow(1))
    with pytest.raises(ValueError, match="t_b is not sorted"):
        match_events_naive(_t([1]), _t([5, 3]), CoincidenceWindow(1))


def test_window_rejects_negative_width():
    with pytest.raises(ValueError):
        CoincidenceWindow(-1)


@pytest.mark.parametrize("width", [1.5, 2.0, True, "3"])
def test_window_rejects_a_width_that_is_no_integer(width):
    # np.uint64 would truncate 1.5 to 1 and take True as 1.
    with pytest.raises(ValueError, match="window width must be an integer"):
        CoincidenceWindow(width)


def test_window_takes_numpy_integers():
    assert CoincidenceWindow(np.uint64(2**64 - 1)).width_ticks == 2**64 - 1


# ---------------------------------------------------------------------------
# match_events: properties against the exhaustive oracle
# ---------------------------------------------------------------------------


@settings(max_examples=150)
@given(t_a=sorted_times, t_b=sorted_times, win=windows)
def test_fast_engine_equals_naive_oracle(t_a, t_b, win):
    fast = match_events(_t(t_a), _t(t_b), win)
    naive = match_events_naive(_t(t_a), _t(t_b), win)
    assert np.array_equal(fast[0], naive[0])
    assert np.array_equal(fast[1], naive[1])


@settings(max_examples=100)
@given(t_a=sorted_times, t_b=sorted_times, win=windows)
def test_matches_are_one_to_one_and_in_window(t_a, t_b, win):
    ia, ib = match_events(_t(t_a), _t(t_b), win)
    assert len(ia) == len(ib) <= min(len(t_a), len(t_b))
    assert len(set(ia.tolist())) == len(ia)
    assert len(set(ib.tolist())) == len(ib)
    for i, j in zip(ia.tolist(), ib.tolist()):
        assert abs(t_a[i] - t_b[j]) <= win.width_ticks


@settings(max_examples=60)
@given(t_a=sorted_times, t_b=sorted_times, w=st.integers(0, 150), extra=st.integers(1, 150))
def test_match_count_monotone_in_window(t_a, t_b, w, extra):
    narrow = match_events(_t(t_a), _t(t_b), CoincidenceWindow(w))
    wide = match_events(_t(t_a), _t(t_b), CoincidenceWindow(w + extra))
    assert len(narrow[0]) <= len(wide[0])


@settings(max_examples=60)
@given(t_a=sorted_times, t_b=sorted_times, win=windows, shift=st.integers(0, 10**9))
def test_match_invariant_under_time_shift(t_a, t_b, win, shift):
    base = match_events(_t(t_a), _t(t_b), win)
    moved = match_events(_t([t + shift for t in t_a]), _t([t + shift for t in t_b]), win)
    assert np.array_equal(base[0], moved[0])
    assert np.array_equal(base[1], moved[1])


# ---------------------------------------------------------------------------
# count_coincidences: pinned examples
# ---------------------------------------------------------------------------


def test_count_both_empty():
    counts = count_coincidences(_stream([], []), _stream([], [], station=Station.BOB), CoincidenceWindow(10))
    assert counts.total_coincidences == 0
    assert counts.total_singles == 0


def test_count_single_pair_zero_window():
    a = _stream([0], [0])
    b = _stream([0], [0], station=Station.BOB)
    counts = count_coincidences(a, b, CoincidenceWindow(0))
    assert counts.n_pp == 1
    assert counts.s_a_plus == 1 and counts.s_b_plus == 1
    assert counts.n_pm == counts.n_mp == counts.n_mm == 0


def test_count_mixed_stream_example():
    a = _stream([100, 200, 300], [0, 0, 0])
    b = _stream([105, 450], [1, 1], station=Station.BOB)
    counts = count_coincidences(a, b, CoincidenceWindow(10))
    assert counts.n_pm == 1
    assert counts.total_coincidences == 1
    assert counts.s_a_plus == 3
    assert counts.s_b_minus == 2


def test_count_earliest_partner_example():
    a = _stream([100], [0])
    b = _stream([95, 104], [1, 1], station=Station.BOB)
    counts = count_coincidences(a, b, CoincidenceWindow(10))
    assert counts.n_pm == 1
    assert counts.s_b_minus == 2


def test_count_one_sided_stream():
    a = _stream([1, 2, 3], [0, 1, 0])
    b = _stream([], [], station=Station.BOB)
    counts = count_coincidences(a, b, CoincidenceWindow(10))
    assert counts.total_coincidences == 0
    assert counts.s_a_plus == 2 and counts.s_a_minus == 1


def test_count_equal_timestamp_prefers_plus_channel():
    a = _stream([10], [0])
    b = _stream([10, 10], [1, 0], station=Station.BOB)
    counts = count_coincidences(a, b, CoincidenceWindow(0))
    assert counts.n_pp == 1
    assert counts.n_pm == 0


def test_count_settings_filter_drops_foreign_settings():
    a = _stream([10, 20, 30], [0, 0, 0], setting=[0, 1, 0])
    b = _stream([10, 20, 30], [1, 1, 1], setting=[2, 2, 3], station=Station.BOB)
    counts = count_coincidences(a, b, CoincidenceWindow(0), settings_filter=(0, 2))
    # A keeps t=10,30 (setting 0); B keeps t=10,20 (setting 2): one match.
    assert counts.n_pm == 1
    assert counts.s_a_plus == 2
    assert counts.s_b_minus == 2


def test_count_settings_filter_matches_naive():
    a = _stream([5, 6, 7, 8], [0, 1, 0, 1], setting=[0, 0, 1, 1])
    b = _stream([5, 6, 7, 8], [1, 0, 1, 0], setting=[1, 1, 0, 0], station=Station.BOB)
    for flt in [None, (0, 1), (1, 0), (3, 3)]:
        fast = count_coincidences(a, b, CoincidenceWindow(1), settings_filter=flt)
        naive = count_coincidences_naive(a, b, CoincidenceWindow(1), settings_filter=flt)
        assert fast == naive


@pytest.mark.parametrize(
    "flt, bad", [((4, 0), 0), ((-1, 0), 0), ((0, 7), 1), ((True, 0), 0), ((0, 1.0), 1)]
)
def test_count_rejects_a_settings_filter_index_outside_0_to_3(flt, bad):
    # Such an index selects no event, which would read as a silent station.
    a = _stream([10], [0])
    b = _stream([10], [0], station=Station.BOB)
    message = rf"settings_filter\[{bad}\] must be a setting index in 0\.\.3, got {flt[bad]}"
    for count in (count_coincidences, count_coincidences_naive):
        with pytest.raises(ValueError, match=message):
            count(a, b, CoincidenceWindow(0), settings_filter=flt)


def test_every_count_is_a_python_int():
    # So that counts serialize to JSON as they are; numpy integers do not.
    block = simulate_block(
        SourceState(1.0), EfficiencyConfig(0.6, 0.5, 0.55, 0.65), SamplingPolicy(),
        SettingsPair(0.3, 0.0), 1000, seed=3,
    )
    a, b = generate_streams(block, 1e3, 1000, 0.0, seed=4)
    window = CoincidenceWindow(0)
    for counts in (block, count_coincidences(a, b, window), count_coincidences_naive(a, b, window)):
        fields = dataclasses.asdict(counts)
        assert all(type(v) is int for v in fields.values()), fields
        json.dumps(fields)


def test_count_rejects_tick_resolution_mismatch():
    a = _stream([1], [0], tick=1000)
    b = _stream([1], [0], tick=500, station=Station.BOB)
    with pytest.raises(ValueError, match="stream A has 1000 ps/tick, stream B has 500"):
        count_coincidences(a, b, CoincidenceWindow(1))


# ---------------------------------------------------------------------------
# count_coincidences: conservation properties
# ---------------------------------------------------------------------------


@st.composite
def stream_pairs(draw):
    def one(station):
        n = draw(st.integers(0, 50))
        t = sorted(draw(st.lists(st.integers(0, 2000), min_size=n, max_size=n)))
        sign = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        return _stream(t, sign, station=station)

    return one(Station.ALICE), one(Station.BOB)


@settings(max_examples=100)
@given(pair=stream_pairs(), win=windows)
def test_count_conserves_events(pair, win):
    a, b = pair
    counts = count_coincidences(a, b, win)
    assert counts.s_a_plus == int(np.sum(a.sign == 0))
    assert counts.s_a_minus == int(np.sum(a.sign == 1))
    assert counts.s_b_plus == int(np.sum(b.sign == 0))
    assert counts.s_b_minus == int(np.sum(b.sign == 1))
    assert counts.total_coincidences <= min(len(a), len(b))
    assert counts == count_coincidences_naive(a, b, win)


# ---------------------------------------------------------------------------
# Streamed matching: TTG1 files read and matched chunk by chunk
# ---------------------------------------------------------------------------


def _streamed_matches(reader_a, reader_b, win):
    """Global (A, B) index pairs of matching two open files chunk by chunk."""
    def columns(reader):
        return ((chunk.t, chunk.sign) for chunk in reader.chunks())

    pairs, a0, b0 = [], 0, 0
    for (t_a, _), (t_b, _), i, j in coincidence._settled_blocks(
        columns(reader_a), columns(reader_b), np.uint64(win.width_ticks)
    ):
        # A block's matches come in the order found; sorted, in sweep order.
        pairs += sorted(zip((i + a0).tolist(), (j + b0).tolist()))
        a0 += t_a.shape[0]
        b0 += t_b.shape[0]
    return pairs


@settings(max_examples=150, deadline=None)
@given(pair=stream_pairs(), win=windows, chunk=st.sampled_from([1, 7, 64, 2**10, None]))
def test_streamed_counter_equals_whole_stream_matching(tmp_path_factory, pair, win, chunk):
    # chunk None: the production size, where each file is one chunk.
    a, b = pair
    whole = match_events(a.t, b.t, win)
    whole = list(zip(whole[0].tolist(), whole[1].tolist()))
    naive = match_events_naive(a.t, b.t, win)
    assert whole == list(zip(naive[0].tolist(), naive[1].tolist()))
    expected = count_coincidences_naive(a, b, win)
    assert count_coincidences(a, b, win) == expected
    run = tmp_path_factory.mktemp("streamed")
    write_ttg(a, run / "a.ttg")
    write_ttg(b, run / "b.ttg")
    with mock.patch.object(timetags, "BLOCK", chunk or timetags.BLOCK), \
            open_ttg(run / "a.ttg") as reader_a, open_ttg(run / "b.ttg") as reader_b:
        assert _streamed_matches(reader_a, reader_b, win) == whole
        assert count_coincidences(reader_a, reader_b, win) == expected


@pytest.mark.parametrize("chunk", [1, 3])
def test_streamed_counter_reads_both_files_to_the_end(tmp_path, monkeypatch, chunk):
    # Matching stops when Alice's events run out; Bob's remaining records
    # still count as singles, and a fault among them is still found.
    a = _stream([1, 2], [0, 0])
    b = _stream(list(range(1, 11)), [1] * 10, station=Station.BOB)
    write_ttg(a, tmp_path / "a.ttg")
    write_ttg(b, tmp_path / "b.ttg")
    monkeypatch.setattr(timetags, "BLOCK", chunk)
    with open_ttg(tmp_path / "a.ttg") as reader_a, open_ttg(tmp_path / "b.ttg") as reader_b:
        counts = count_coincidences(reader_a, reader_b, CoincidenceWindow(0))
    assert counts == count_coincidences(a, b, CoincidenceWindow(0))
    assert counts.s_b_minus == 10
    raw = bytearray((tmp_path / "b.ttg").read_bytes())
    raw[24 + 9 * 9] = 0  # Bob's last timestamp, 10, becomes 0
    (tmp_path / "b.ttg").write_bytes(bytes(raw))
    with open_ttg(tmp_path / "a.ttg") as reader_a, open_ttg(tmp_path / "b.ttg") as reader_b:
        with pytest.raises(ValueError, match="record 9 timestamp 0 is before"):
            count_coincidences(reader_a, reader_b, CoincidenceWindow(0))


# ---------------------------------------------------------------------------
# match_events: dense regime (clusters of more than two events) vs the oracle
# ---------------------------------------------------------------------------


def _assert_same_as_naive(t_a, t_b, width):
    win = CoincidenceWindow(width)
    fast = match_events(_t(t_a), _t(t_b), win)
    naive = match_events_naive(_t(t_a), _t(t_b), win)
    assert np.array_equal(fast[0], naive[0])
    assert np.array_equal(fast[1], naive[1])
    return fast


def _cluster_gt2_share(t_a, t_b, width):
    t = np.sort(np.concatenate((t_a, t_b)))
    cuts = np.flatnonzero(np.diff(t) > np.uint64(width)) + 1
    sizes = np.diff(np.concatenate(([0], cuts, [t.size])))
    return sizes[sizes > 2].sum() / t.size


@st.composite
def bursts(draw):
    """A and B times packed into up to four far-apart bursts, window up to the span."""
    span = draw(st.integers(0, 400))
    times = st.lists(st.integers(0, span), max_size=40)
    t_a, t_b = [], []
    for k in range(draw(st.integers(1, 4))):
        base = k * (3 * span + 1000)
        t_a += [base + t for t in draw(times)]
        t_b += [base + t for t in draw(times)]
    return sorted(t_a), sorted(t_b), draw(st.integers(0, span))


@settings(max_examples=200)
@given(block=bursts())
def test_long_clusters_equal_naive_oracle(block):
    _assert_same_as_naive(*block)


@settings(max_examples=200)
@given(block=bursts(), size=st.sampled_from([1, 2, 3, 8]))
def test_small_merge_blocks_equal_naive_oracle(block, size):
    # Blocks of a few events put cluster ends and ties at every block
    # boundary and make single clusters overflow their block.  A merge
    # takes BLOCK / 2 events per station.
    with mock.patch.object(timetags, "BLOCK", 2 * size):
        _assert_same_as_naive(*block)


@settings(max_examples=200)
@given(
    block=bursts(), size=st.sampled_from([1, 2, 3, 8]), top=st.booleans(),
    huge=st.booleans(), data=st.data(),
)
def test_count_through_carried_clusters_equals_naive(block, size, top, huge, data):
    # The counter through small blocks, where clusters are carried over
    # and blocks widen, optionally at the top of the uint64 range and
    # with a window that spans all of it.
    t_a, t_b, width = block
    if top:
        shift = U64_MAX - data.draw(st.integers(0, 2)) - max(t_a + t_b, default=0)
        t_a, t_b = [t + shift for t in t_a], [t + shift for t in t_b]
    win = CoincidenceWindow(U64_MAX if huge else width)
    n = len(t_a) + len(t_b)
    sign = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    a = _stream(t_a, sign[:len(t_a)])
    b = _stream(t_b, sign[len(t_a):], station=Station.BOB)
    with mock.patch.object(timetags, "BLOCK", 2 * size):
        assert count_coincidences(a, b, win) == count_coincidences_naive(a, b, win)


@pytest.mark.parametrize(
    "t_a, t_b, width, pairs",
    [
        # The block of two events per station ends inside the cluster
        # {5, 5, 6}; A event 6 pairs with B event 8, past the block.
        ([5, 6], [1, 5, 8], 2, [(0, 1), (1, 2)]),
        # One cluster spans every block: the block widens until it fits.
        (list(range(0, 20, 2)), list(range(1, 20, 2)), 1, [(k, k) for k in range(10)]),
        # Equal timestamps across every block boundary.
        ([3, 3, 3, 3], [3, 3, 3], 0, [(0, 0), (1, 1), (2, 2)]),
    ],
)
def test_match_across_merge_blocks(t_a, t_b, width, pairs):
    with mock.patch.object(timetags, "BLOCK", 4):
        ia, ib = _assert_same_as_naive(t_a, t_b, width)
    assert list(zip(ia.tolist(), ib.tolist())) == pairs


def test_dense_generated_stream_equals_naive_oracle():
    # eta = 0.9 at 1 MHz with 200 kHz dark counts per channel: most events
    # sit in clusters of more than two, the regime of long lockstep passes.
    counts = simulate_block(
        SourceState(1.0),
        EfficiencyConfig(0.9, 0.9, 0.9, 0.9),
        SamplingPolicy(PolicyKind.UNFAIR_MALUS, 0.5),
        SettingsPair(0.3, 0.0),
        16_000,
        np.random.SeedSequence(31),
    )
    a, b = generate_streams(
        counts, pair_rate_hz=1e6, tick_resolution_ps=1000, jitter_sd_ticks=50.0,
        seed=np.random.SeedSequence(32), dark_rate_hz=2e5,
    )
    width = 500
    end = np.uint64(12_000_000)  # ticks: a prefix of 12 ms out of 16 ms
    t_a, t_b = a.t[a.t < end], b.t[b.t < end]
    assert t_a.size + t_b.size >= 20_000
    assert _cluster_gt2_share(t_a, t_b, width) > 0.5
    ia, _ = _assert_same_as_naive(t_a, t_b, width)
    assert ia.size > 5_000
    # The same stream in many merge blocks and lockstep passes.
    with mock.patch.object(timetags, "BLOCK", 1000):
        _assert_same_as_naive(t_a, t_b, width)


# ---------------------------------------------------------------------------
# match_events: clusters within the window and wider, vs the oracle
# ---------------------------------------------------------------------------


@st.composite
def narrow_and_wide_bursts(draw):
    """Far-apart bursts, each spanning at most the window or more than it."""
    width = draw(st.integers(0, 200))
    t_a, t_b = [], []
    for k in range(draw(st.integers(1, 6))):
        base = k * (4 * width + 1000)
        if draw(st.booleans()):
            span = draw(st.integers(0, width))
        else:
            span = draw(st.integers(width + 1, 3 * width + 10))
        times = st.lists(st.integers(0, span), max_size=6)
        t_a += [base + t for t in draw(times)]
        t_b += [base + t for t in draw(times)]
    return sorted(t_a), sorted(t_b), width


@settings(max_examples=200)
@given(block=narrow_and_wide_bursts(), size=st.sampled_from([1, 2, 3, 8]))
def test_narrow_and_wide_clusters_equal_naive_oracle(block, size):
    with mock.patch.object(timetags, "BLOCK", 2 * size):
        _assert_same_as_naive(*block)


@pytest.mark.parametrize(
    "t_a, t_b, width, expected",
    [
        # Span exactly the window: the first A event is 10 before the last
        # B event and still pairs with the first B event.
        ([0, 10], [5, 10], 10, [(0, 0), (1, 1)]),
        ([0, 4, 10], [0, 10], 10, [(0, 0), (1, 1)]),
        # Window 0: only ties match, k-th with k-th.
        ([3, 3, 3], [3, 3], 0, [(0, 0), (1, 1)]),
        ([1, 3, 3, 5], [3, 3, 3, 6], 0, [(1, 0), (2, 1)]),
        # At the top of the uint64 range.
        ([U64_MAX - 1, U64_MAX], [U64_MAX, U64_MAX], 1, [(0, 0), (1, 1)]),
        ([U64_MAX], [U64_MAX - 2**63, U64_MAX], 2**63, [(0, 0)]),
    ],
    ids=["span-eq-window", "span-eq-window-3a", "zero-window-ties",
         "zero-window-mixed", "u64-max", "u64-max-span-2**63"],
)
def test_clusters_within_the_window_pair_kth_with_kth(t_a, t_b, width, expected):
    ia, ib = _assert_same_as_naive(t_a, t_b, width)
    assert list(zip(ia.tolist(), ib.tolist())) == expected


def test_clusters_one_tick_wider_than_the_window_follow_the_sweep():
    # Each input is one cluster spanning 11 ticks, one more than the window.
    ia, ib = _assert_same_as_naive([0, 11], [5, 11], 10)
    assert list(zip(ia.tolist(), ib.tolist())) == [(0, 0), (1, 1)]
    # A = 0 is 11 before B = 11 and expires; k-th pairing would keep it.
    ia, ib = _assert_same_as_naive([0, 6], [11, 11], 10)
    assert list(zip(ia.tolist(), ib.tolist())) == [(1, 0)]


def test_match_ties_across_stations():
    ia, ib = _assert_same_as_naive([10, 10, 10], [10, 10], 0)
    assert list(ia) == [0, 1] and list(ib) == [0, 1]
    ia, ib = _assert_same_as_naive([5, 10, 10], [10, 10, 15], 5)
    assert list(ia) == [0, 1, 2] and list(ib) == [0, 1, 2]


def test_match_zero_window_needs_equal_timestamps():
    ia, ib = _assert_same_as_naive([1, 2, 3, 5], [2, 3, 4, 5], 0)
    assert list(ia) == [1, 2, 3] and list(ib) == [0, 1, 3]


def test_match_one_station_clusters_never_match():
    ia, _ = _assert_same_as_naive([0, 1, 2, 1000, 1001], [500, 2000, 2001], 10)
    assert ia.size == 0
    # A-only, B-only and mixed clusters side by side.
    ia, ib = _assert_same_as_naive([0, 1, 2, 100], [50, 101], 2)
    assert list(ia) == [3] and list(ib) == [1]


def test_match_whole_input_is_one_cluster():
    t_a = np.arange(0, 2000, 2)
    t_b = np.arange(1, 2000, 2)
    ia, ib = _assert_same_as_naive(t_a, t_b, 1)
    assert np.array_equal(ia, np.arange(1000)) and np.array_equal(ib, np.arange(1000))
    # B one event behind: the first A event expires and the rest pair off.
    ia, ib = _assert_same_as_naive(t_a, t_b[1:] - 2, 1)
    assert ia.size == 999
    _assert_same_as_naive(t_a, t_b, 1999)


@pytest.mark.parametrize("width", [0, 1, 2, 2**63, U64_MAX])
def test_match_u64_max_timestamps(width):
    _assert_same_as_naive(
        [U64_MAX - 3, U64_MAX - 1, U64_MAX], [U64_MAX - 2, U64_MAX, U64_MAX], width
    )
    _assert_same_as_naive([0, U64_MAX], [0, 1, U64_MAX - 1, U64_MAX], width)
    # At width 2**63 all three events form one cluster, and 0 is more than
    # the window before U64_MAX although U64_MAX - 0 wraps to within it.
    _assert_same_as_naive([U64_MAX], [0, 2**63], width)
