"""Windowed coincidence matching between two time-tagged streams.

Policy, applied identically by both engines:

* a pair (a, b) is a coincidence candidate when |t_a - t_b| <= window
  (inclusive);
* matching is one-to-one and greedy in chronological order: each event
  is paired with the earliest unmatched partner inside its window, not
  the nearest one (A = [100] with B = [95, 104] and window 10 matches
  100 <-> 95);
* equal timestamps are resolved Plus before Minus, which the stream
  container already guarantees by its sort order.

``count_coincidences`` gives the result of a two-pointer sweep, computed
with numpy alone.  The merged A+B timeline is cut wherever the gap
between consecutive events is wider than the window; the sweep never
matches across such a gap, so each cluster between cuts is solved on its
own, and clusters lacking either station are dropped.

Most clusters need no sweep.  In a *narrow* cluster, whose last event is
within the window of its first, every A event is within the window of
every B event, so each sweep step matches and advances both pointers:
the k-th A event pairs with the k-th B event for k < min(n_A, n_B).
That is exact, not an approximation, and these pairs are written
directly.  Only the *wide* clusters are swept, in lockstep: each
iteration is one vectorized sweep step in every live wide cluster, so
the number of iterations is set by the longest cluster, not by the
number of events.  Both stages work through the streams in blocks, so
their temporaries stay bounded whatever the input size.

``match_events_naive`` re-implements the matching policy by explicit
per-event enumeration and exists as an independent oracle for tests and
verification; ``count_coincidences_naive`` runs it through the same
event selection and counting as ``count_coincidences``, where singles
count every event on a channel whether or not it was matched.

Both engines raise ``ValueError`` for unsorted timestamp arrays and for
streams of different tick resolutions.  The counts they return hold no
angles: the caller keeps a point's settings with the point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detection import BlockCounts
from .timetags import EventStream


@dataclass(frozen=True)
class CoincidenceWindow:
    """Half-width of the matching window, in ticks (inclusive)."""

    width_ticks: int

    def __post_init__(self) -> None:
        if not 0 <= self.width_ticks <= 2**64 - 1:
            raise ValueError(f"width_ticks must be in 0..2**64 - 1, got {self.width_ticks}")


# Events per station in one merge.  It bounds the matcher's temporaries
# whatever the input size (about 40 MB at a 2.4M-event point).  Much
# smaller blocks, of 2**15, left glibc's main heap fragmented and 50 MB
# larger after a dense analysis, which raised the process's peak memory in
# the next simulation.
_BLOCK = 1 << 18
# The least number of wide clusters per lockstep pass.  A pass costs one
# numpy step per sweep step of its longest cluster, so passes over few
# clusters are slow when clusters are long (a window many times the mean
# gap); a dense point has about 40000 wide clusters per block and sweeps
# each block's before merging the next.
_SWEEP = 1 << 12


def _block_clusters(
    t_a: np.ndarray, t_b: np.ndarray, width: np.uint64, final: bool,
    partner: np.ndarray, b0: int,
) -> tuple[np.ndarray, int, int]:
    """Match the narrow clusters of one block; return its wide ones.

    A cluster is a run of the merged timeline that no gap wider than the
    window splits.  Every event of a cluster lies more than ``width`` away
    from every event of another, so the sweep never matches across
    clusters and enters each one with both pointers at its first events.

    A cluster is narrow when its last event is within ``width`` of its
    first.  Every comparison inside it then matches, so the sweep pairs
    its k-th A event with its k-th B event for k < min(n_A, n_B); these
    pairs are written straight into ``partner`` (the block's slice, with
    B indices offset by ``b0``).  Returns a (4, k) array of the ranges
    a_lo, a_hi, b_lo, b_hi of the wide clusters that hold events of both
    stations, indexed within the block, then the numbers of A and B
    events settled.  Unless the block is ``final``, its last cluster may
    go on past the block, so that cluster is left to the next block.
    """
    na = t_a.shape[0]
    n = na + t_b.shape[0]
    t = np.concatenate((t_a, t_b))
    # A stable sort of two sorted runs is one timsort merge, O(n).
    order = t.argsort(kind="stable")
    merged = t.take(order)
    # joined[p + 1] says whether merged events p and p + 1 share a cluster:
    # the gap between them, taken in place, is within the window.  With a
    # False at either end, joined changes value exactly at the first and
    # just past the last event of every run of two or more events.
    np.subtract(merged[1:], merged[:-1], out=merged[:-1])
    joined = np.zeros(n + 1, dtype=bool)
    np.less_equal(merged[:-1], width, out=joined[1:n])
    del merged
    edges = np.flatnonzero(joined[1:] != joined[:-1])
    first, last = edges[0::2], edges[1::2]
    if final:
        stop = n
    elif joined[n - 1]:
        # The last cluster reaches the block's end and may go on past it.
        stop = int(first[-1])
        first, last = first[:-1], last[:-1]
    else:
        stop = n - 1
    # The merge keeps each station's order: merged event p is A event
    # order[p], with order[p] A events before it, or B event order[p] - na,
    # with p + na - order[p] A events before it.  The count that applies is
    # the smaller of the two: for an A event, order[p] < na <= p + na -
    # order[p]; for a B event, p + na - order[p] <= na <= order[p].
    o_first, o_last = order[first], order[last]
    a_lo = np.minimum(o_first, first + na - o_first)
    a_hi = np.minimum(o_last + 1, last + na - o_last)
    b_lo, b_hi = first - a_lo, last + 1 - a_hi
    pairs = np.minimum(a_hi - a_lo, b_hi - b_lo)
    narrow = t[o_last] - t[o_first] <= width
    if stop == n:
        a_done = na
    else:
        o_stop = int(order[stop])
        a_done = min(o_stop, stop + na - o_stop)

    # Narrow clusters: the k-th A event takes the k-th B event.  Most hold
    # one pair, so each round k leaves fewer of them.
    sel = np.flatnonzero(narrow & (pairs > 0))
    i, j, left = a_lo[sel], b_lo[sel] + b0, pairs[sel]
    while True:
        partner[i] = j
        more = np.flatnonzero(left > 1)
        if not more.size:
            break
        i, j, left = i[more] + 1, j[more] + 1, left[more] - 1

    wide = np.flatnonzero(~narrow & (pairs > 0))
    ranges = np.stack((a_lo[wide], a_hi[wide], b_lo[wide], b_hi[wide]))
    return ranges, a_done, stop - a_done


def _cluster_blocks(
    t_a: np.ndarray, t_b: np.ndarray, width: np.uint64, partner: np.ndarray
):
    """Match the narrow clusters block by block; yield the wide ones' ranges."""
    na, nb = t_a.shape[0], t_b.shape[0]
    a0 = b0 = 0
    size = _BLOCK
    while a0 < na and b0 < nb:
        a1, b1 = min(a0 + size, na), min(b0 + size, nb)
        if a1 < na or b1 < nb:
            # Take every event up to the earlier block end, so that no
            # event left for later precedes one taken.
            cut = min(t[k - 1] for t, k in ((t_a, a1), (t_b, b1)) if k < t.shape[0])
            a1 = int(np.searchsorted(t_a, cut, side="right"))
            b1 = int(np.searchsorted(t_b, cut, side="right"))
        final = a1 == na and b1 == nb
        ranges, a_done, b_done = _block_clusters(
            t_a[a0:a1], t_b[b0:b1], width, final, partner[a0:a1], b0
        )
        if a_done + b_done == 0:
            size *= 2  # one cluster fills the block
            continue
        ranges[:2] += a0
        ranges[2:] += b0
        yield ranges
        a0 += a_done
        b0 += b_done


def _lockstep(
    t_a: np.ndarray, t_b: np.ndarray, width: np.uint64,
    ranges: np.ndarray, partner: np.ndarray,
) -> None:
    """Sweep every cluster of ``ranges`` at once; partner[i] = j per match."""
    i, a_end, j, b_end = ranges
    while i.shape[0]:
        ta = t_a[i]
        tb = t_b[j]
        a_first = ta < tb
        # Larger minus smaller keeps the uint64 difference overflow-free.
        match = np.maximum(ta, tb) - np.minimum(ta, tb) <= width
        partner[i[match]] = j[match]
        i += match | a_first
        j += match | ~a_first
        live = np.flatnonzero((i < a_end) & (j < b_end))
        i, a_end, j, b_end = i[live], a_end[live], j[live], b_end[live]


def _sorted_u64(t_a: np.ndarray, t_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both timestamp arrays as contiguous uint64; raise if either is unsorted."""
    t_a = np.ascontiguousarray(t_a, dtype=np.uint64)
    t_b = np.ascontiguousarray(t_b, dtype=np.uint64)
    for name, t in (("t_a", t_a), ("t_b", t_b)):
        if t.shape[0] > 1 and np.any(t[1:] < t[:-1]):
            raise ValueError(f"{name} is not sorted by timestamp")
    return t_a, t_b


def match_events(
    t_a: np.ndarray, t_b: np.ndarray, window: CoincidenceWindow
) -> tuple[np.ndarray, np.ndarray]:
    """Match two sorted uint64 timestamp arrays; returns paired indices.

    The result equals a two-pointer sweep's: at each step, if the unsigned
    distance |t_a[i] - t_b[j]| is within the window both events match and
    both pointers advance, otherwise the earlier event is dropped.  The
    sweep restarts at every gap wider than the window (see
    :func:`_block_clusters`).  A cluster that spans no more than the window
    needs no sweep: every step in it matches, so its k-th A event pairs
    with its k-th B event for k < min(n_A, n_B).  The other clusters are
    swept in lockstep: each iteration is one sweep step in all of them,
    and a cluster retires when either pointer leaves its range.  Matches
    are recorded by A index, so they come out in sweep order.
    """
    t_a, t_b = _sorted_u64(t_a, t_b)
    width = np.uint64(window.width_ticks)
    partner = np.full(t_a.shape[0], -1, dtype=np.int64)
    pending, count = [], 0
    for ranges in _cluster_blocks(t_a, t_b, width, partner):
        pending.append(ranges)
        count += ranges.shape[1]
        if count >= _SWEEP:
            _lockstep(t_a, t_b, width, np.concatenate(pending, axis=1), partner)
            pending, count = [], 0
    if pending:
        _lockstep(t_a, t_b, width, np.concatenate(pending, axis=1), partner)
    idx_a = np.flatnonzero(partner >= 0)
    return idx_a, partner[idx_a]


def _count(
    match, stream_a: EventStream, stream_b: EventStream, window: CoincidenceWindow,
    settings_filter: "tuple[int, int] | None",
) -> BlockCounts:
    """Select each stream's events, pair them with ``match`` and count.

    Singles count every selected event on a channel, matched or not.
    """
    if stream_a.tick_resolution_ps != stream_b.tick_resolution_ps:
        raise ValueError(
            f"stream A has {stream_a.tick_resolution_ps} ps/tick, "
            f"stream B has {stream_b.tick_resolution_ps} ps/tick"
        )
    t_a, sign_a = stream_a.t, stream_a.sign
    t_b, sign_b = stream_b.t, stream_b.sign
    if settings_filter is not None:
        keep_a = stream_a.setting_index == settings_filter[0]
        keep_b = stream_b.setting_index == settings_filter[1]
        t_a, sign_a = t_a[keep_a], sign_a[keep_a]
        t_b, sign_b = t_b[keep_b], sign_b[keep_b]
    idx_a, idx_b = match(t_a, t_b, window)
    cells = (sign_a[idx_a].astype(np.intp) << 1) | sign_b[idx_b]
    coinc = np.bincount(cells, minlength=4)
    # Signs are 0 (Plus) or 1 (Minus), so one pass per station counts the
    # Minus singles and the rest are Plus.  Every count is a Python int, as
    # simulate_block's are, so the counts serialize to JSON as they are.
    minus_a, minus_b = int(np.count_nonzero(sign_a)), int(np.count_nonzero(sign_b))
    return BlockCounts(
        n_pp=int(coinc[0]),
        n_pm=int(coinc[1]),
        n_mp=int(coinc[2]),
        n_mm=int(coinc[3]),
        s_a_plus=sign_a.shape[0] - minus_a,
        s_a_minus=minus_a,
        s_b_plus=sign_b.shape[0] - minus_b,
        s_b_minus=minus_b,
    )


def count_coincidences(
    stream_a: EventStream,
    stream_b: EventStream,
    window: CoincidenceWindow,
    settings_filter: "tuple[int, int] | None" = None,
) -> BlockCounts:
    """Match two streams and reduce to coincidence and singles counts.

    With ``settings_filter = (setting_a, setting_b)`` only events carrying
    those setting indices take part, in matching and in the singles totals.
    """
    return _count(match_events, stream_a, stream_b, window, settings_filter)


def match_events_naive(
    t_a: np.ndarray, t_b: np.ndarray, window: CoincidenceWindow
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle matcher: explicit enumeration, one A event at a time.

    For each A event in order, every B event inside the window is
    enumerated and the earliest unmatched one is taken.  Quadratic in
    the worst case; use only for verification.
    """
    t_a, t_b = _sorted_u64(t_a, t_b)
    w = int(window.width_ticks)
    u64_max = np.iinfo(np.uint64).max
    taken = np.zeros(t_b.shape[0], dtype=bool)
    pairs_a = []
    pairs_b = []
    for i in range(t_a.shape[0]):
        ta = int(t_a[i])
        lo = int(np.searchsorted(t_b, max(ta - w, 0), side="left"))
        hi = int(np.searchsorted(t_b, min(ta + w, u64_max), side="right"))
        for j in range(lo, hi):
            if not taken[j]:
                taken[j] = True
                pairs_a.append(i)
                pairs_b.append(j)
                break
    return (
        np.asarray(pairs_a, dtype=np.int64),
        np.asarray(pairs_b, dtype=np.int64),
    )


def count_coincidences_naive(
    stream_a: EventStream,
    stream_b: EventStream,
    window: CoincidenceWindow,
    settings_filter: "tuple[int, int] | None" = None,
) -> BlockCounts:
    """:func:`count_coincidences` with the oracle matcher."""
    return _count(match_events_naive, stream_a, stream_b, window, settings_filter)
