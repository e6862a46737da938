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

The clusters are found, then swept, one block of the streams at a time.
The sweep runs in lockstep: each iteration is one vectorized sweep step
in every live cluster of the block, so the number of iterations is set
by the block's longest cluster, not by the number of events.  Each
iteration adds the pairs it matched to the end of the block's two index
arrays (A events, B events), so a block's matches come out in the order
found, not in sweep order.  ``count_coincidences`` counts the four sign
cells straight from those arrays, before the next block is read, so a
stream can come in chunks, as a TTG1 file is read.  Memory is bounded by
one block plus the longest cluster, not by the input alone: a cluster
that does not fit its block doubles the block until it does, so a window
that makes a whole point one cluster holds the whole point.  No public
function returns the production matcher's pairs: ``_settled_blocks``
yields them block by block.

``match_events_naive`` re-implements the matching policy by explicit
per-event enumeration and exists as an independent oracle for tests and
verification; ``count_coincidences_naive`` runs it through the same
event selection as ``count_coincidences`` and counts the cells of its
pairs with a ``bincount`` of its own, for the tests and the benchmark's
check (``perfbench/checks.py``).  In both, singles count every event on
a channel whether or not it was matched.

Both engines raise ``ValueError`` for unsorted timestamp arrays and for
streams of different tick resolutions.  The counts they return hold no
angles: the caller keeps a point's settings with the point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import timetags
from .detection import BlockCounts
from .timetags import EventStream, TtgReader


@dataclass(frozen=True)
class CoincidenceWindow:
    """Half-width of the matching window, in ticks (inclusive).  It is
    compared as a uint64: a Python or numpy integer in 0..2**64 - 1."""

    width_ticks: int

    def __post_init__(self) -> None:
        w = self.width_ticks
        if not (_is_int(w) and 0 <= w <= 2**64 - 1):
            raise ValueError(f"window width must be an integer in 0..2**64 - 1, got {w!r}")


def _is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _block_clusters(
    t_a: np.ndarray, t_b: np.ndarray, width: np.uint64, final: bool,
) -> tuple[tuple, int, int]:
    """Find the clusters of one block that hold events of both stations.

    A cluster is a run of the merged timeline that no gap wider than the
    window splits.  Every event of a cluster lies more than ``width`` away
    from every event of another, so the sweep never matches across
    clusters and enters each one with both pointers at its first events.

    Returns the ranges a_lo, a_hi, b_lo, b_hi of those clusters, as a tuple
    of four arrays indexed within the block, then the numbers of A and B
    events settled.  Unless the block is ``final``, its last cluster may go
    on past the block, so that cluster is left to the next block and is
    not among the ranges.
    """
    na = t_a.shape[0]
    n = na + t_b.shape[0]
    merged = np.concatenate((t_a, t_b))
    # A stable sort of two sorted runs is one timsort merge, O(n).  Flipping
    # the top bit maps uint64 order onto int64 order, which numpy sorts
    # without holding the interpreter lock (it holds it for uint64 keys);
    # the flip adds 2**63 modulo 2**64, so the wrapped gaps stay the same.
    merged ^= np.uint64(1 << 63)
    order = merged.view(np.int64).argsort(kind="stable")
    merged = merged.take(order)
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
    if stop == n:
        a_done = na
    else:
        o_stop = int(order[stop])
        a_done = min(o_stop, stop + na - o_stop)
    del order  # spent: the block's largest array goes before the next ones
    a_lo = np.minimum(o_first, first + na - o_first)
    a_hi = np.minimum(o_last + 1, last + na - o_last)
    b_lo, b_hi = first - a_lo, last + 1 - a_hi
    both = np.flatnonzero((a_hi > a_lo) & (b_hi > b_lo))
    return (a_lo[both], a_hi[both], b_lo[both], b_hi[both]), a_done, stop - a_done


class _Pending:
    """One station's events not yet settled, refilled from its chunks.

    ``cols`` holds parallel arrays, timestamps first, of the events read
    from ``chunks`` (tuples of such arrays) and not yet taken.
    """

    def __init__(self, chunks) -> None:
        self._chunks = iter(chunks)
        self.cols: tuple = ()
        self.exhausted = False

    def __len__(self) -> int:
        return self.cols[0].shape[0] if self.cols else 0

    def fill(self, n: int) -> None:
        """Read chunks until ``n`` events are pending or none are left."""
        while len(self) < n and not self.exhausted:
            chunk = next(self._chunks, None)
            if chunk is None:
                self.exhausted = True
            elif not len(self):
                self.cols = chunk
            else:
                self.cols = tuple(np.concatenate(c) for c in zip(self.cols, chunk))

    def more(self, k: int) -> bool:
        """Whether events beyond the first ``k`` pending ones may exist."""
        return k < len(self) or not self.exhausted

    def take(self, k: int) -> tuple:
        """Remove the first ``k`` pending events and return their columns."""
        head = tuple(c[:k] for c in self.cols)
        self.cols = tuple(c[k:] for c in self.cols)
        return head

    def drain(self) -> None:
        """Read, and drop, every chunk not yet read."""
        for _ in self._chunks:
            pass


def _settled_blocks(chunks_a, chunks_b, width: np.uint64):
    """Match two streams given in chunks, one block of settled events at a time.

    Each chunk is a tuple of parallel arrays whose first is the sorted
    uint64 timestamps; the chunks of a station continue one another.  Per
    block, yields the columns of the A and B events it settles, in stream
    order, and the local indices (i, j) of its matches in the order found,
    not in sweep order.  A block holds up to ``BLOCK`` events, half from
    each station, besides a cluster carried over; its own last cluster may
    go on past it, so that cluster's events are in no match and stay
    pending for the next block, as does every event once one station has
    none left.  Both chunk sequences are read to their end.
    """
    a, b = _Pending(chunks_a), _Pending(chunks_b)
    size = max(1, timetags.BLOCK // 2)
    while True:
        a.fill(size)
        b.fill(size)
        if not (len(a) and len(b)):
            break
        t_a, t_b = a.cols[0], b.cols[0]
        a1, b1 = min(size, len(a)), min(size, len(b))
        # Take every event up to the earlier block end, so that no event
        # left for later precedes one taken.
        ends = [t[k - 1] for t, k, q in ((t_a, a1, a), (t_b, b1, b)) if q.more(k)]
        if ends:
            cut = min(ends)
            a1 = int(np.searchsorted(t_a, cut, side="right"))
            b1 = int(np.searchsorted(t_b, cut, side="right"))
        ranges, a_done, b_done = _block_clusters(t_a[:a1], t_b[:b1], width, not ends)
        if a_done + b_done == 0:
            size *= 2  # one cluster fills the block
            continue
        i, j = _lockstep(t_a[:a1], t_b[:b1], width, ranges)
        yield a.take(a_done), b.take(b_done), i, j
        del i, j, ranges  # freed before the next block is read
    a.drain()
    b.drain()


def _lockstep(
    t_a: np.ndarray, t_b: np.ndarray, width: np.uint64, ranges: tuple,
) -> tuple[np.ndarray, np.ndarray]:
    """Sweep every cluster of ``ranges`` at once, one step per iteration.

    Each iteration matches one pair at most per live cluster and retires
    the clusters that either pointer has left, so the number of
    iterations is set by the longest cluster.  Returns the indices (i, j)
    of the pairs matched, in the order found.
    """
    i, a_end, j, b_end = ranges
    # A cluster matches min(n_A, n_B) times at most.  Each step's pairs go
    # at the end of two arrays sized for that, so a long cluster's
    # thousands of one-pair steps leave no array each.
    size = int(np.minimum(a_end - i, b_end - j).sum())
    match_i = np.empty(size, dtype=np.intp)
    match_j = np.empty(size, dtype=np.intp)
    n = 0
    while i.shape[0]:
        ta = t_a[i]
        tb = t_b[j]
        a_first = ta < tb
        # |ta - tb| in place, larger minus smaller: no uint64 overflow.
        lo = np.minimum(ta, tb)
        np.maximum(ta, tb, out=ta)
        ta -= lo
        match = ta <= width
        # nonzero()[0] skips flatnonzero's Python wrapper, and the live
        # arrays are compacted only once a cluster retires: a long
        # cluster's sweep is thousands of one-element steps, where each
        # numpy call costs more than its work.
        k = match.nonzero()[0]
        m = n + k.shape[0]
        match_i[n:m] = i[k]
        match_j[n:m] = j[k]
        n = m
        i += match | a_first
        j += match | ~a_first
        live = ((i < a_end) & (j < b_end)).nonzero()[0]
        if live.shape[0] < i.shape[0]:
            i, a_end, j, b_end = i[live], a_end[live], j[live], b_end[live]
    return match_i[:n], match_j[:n]


def _sorted_u64(t_a: np.ndarray, t_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both timestamp arrays as contiguous uint64; raise if either is unsorted."""
    t_a = np.ascontiguousarray(t_a, dtype=np.uint64)
    t_b = np.ascontiguousarray(t_b, dtype=np.uint64)
    for name, t in (("t_a", t_a), ("t_b", t_b)):
        if t.shape[0] > 1 and np.any(t[1:] < t[:-1]):
            raise ValueError(f"{name} is not sorted by timestamp")
    return t_a, t_b


def _check_inputs(
    stream_a, stream_b, settings_filter: "tuple[int, int] | None"
) -> tuple:
    """Refuse streams of different tick resolutions and a filter that is not
    two integers in 0..3; return the setting index each station keeps, or None."""
    if stream_a.tick_resolution_ps != stream_b.tick_resolution_ps:
        raise ValueError(
            f"stream A has {stream_a.tick_resolution_ps} ps/tick, "
            f"stream B has {stream_b.tick_resolution_ps} ps/tick"
        )
    if settings_filter is None:
        return None, None
    if not (isinstance(settings_filter, (tuple, list)) and len(settings_filter) == 2):
        raise ValueError(
            f"settings_filter must be two setting indices, got {settings_filter!r}"
        )
    for k, setting in enumerate(settings_filter):
        if not _is_int(setting) or setting not in range(4):
            raise ValueError(
                f"settings_filter[{k}] must be a setting index in 0..3, got {setting!r}"
            )
    return settings_filter


def _selected(chunk: EventStream, setting: "int | None") -> tuple[np.ndarray, np.ndarray]:
    """Timestamps and signs of the events of ``chunk`` at ``setting`` (None: all)."""
    if setting is None:
        return chunk.t, chunk.sign
    keep = chunk.setting_index == setting
    return chunk.t[keep], chunk.sign[keep]


def _sign_counts(sign: np.ndarray) -> tuple[int, int]:
    """Plus and Minus events among ``sign``: Minus is 1, so it is the
    count of non-zero signs."""
    minus = np.count_nonzero(sign)
    return sign.shape[0] - minus, minus


def _sign_cells(block) -> np.ndarray:
    """The four sign cells of one settled block's matches, in BlockCounts
    order, from the signs of its pairs: Minus is 1, so each cell follows
    from the matches and those with A, B and both on Minus."""
    (_, sign_a), (_, sign_b), i, j = block
    sa, sb = sign_a[i], sign_b[j]
    minus_a, minus_b = np.count_nonzero(sa), np.count_nonzero(sb)
    minus_both = np.count_nonzero(sa & sb)
    return np.array((
        i.shape[0] - minus_a - minus_b + minus_both,
        minus_b - minus_both,
        minus_a - minus_both,
        minus_both,
    ))


def count_coincidences(
    stream_a: "EventStream | TtgReader",
    stream_b: "EventStream | TtgReader",
    window: CoincidenceWindow,
    settings_filter: "tuple[int, int] | None" = None,
) -> BlockCounts:
    """Match two streams and reduce to coincidence and singles counts.

    Either stream may be an open :class:`~fairsample.timetags.TtgReader`:
    its file is then read and matched chunk by chunk, so memory stays
    within one block plus the longest cluster of the merged timeline,
    whatever the file's length.  With ``settings_filter = (setting_a,
    setting_b)`` only events carrying those setting indices take part, in
    matching and in the singles totals.  Singles count every selected
    event on a channel, matched or not.
    """
    settings = _check_inputs(stream_a, stream_b, settings_filter)
    # Rows are stations and columns signs, so raveled it is the singles in
    # BlockCounts order.
    singles = np.zeros((2, 2), dtype=np.int64)

    def selected(stream, station: int):
        # A map holds no chunk between calls, so each is freed once matched.
        def select(chunk):
            t, sign = _selected(chunk, settings[station])
            singles[station] += _sign_counts(sign)
            return t, sign

        return map(select, stream.chunks())

    cells = np.zeros(4, dtype=np.int64)
    # Nor does it hold a block: its matches, and its columns, views of the
    # chunks read, are freed once counted, before the next block is matched.
    for block_cells in map(_sign_cells, _settled_blocks(
        selected(stream_a, 0), selected(stream_b, 1), np.uint64(window.width_ticks)
    )):
        cells += block_cells
    return BlockCounts.from_arrays(cells, singles.ravel())


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
        # uint64 keys: a Python int key below 2**63 is compared in float64.
        lo = int(np.searchsorted(t_b, np.uint64(max(ta - w, 0)), side="left"))
        hi = int(np.searchsorted(t_b, np.uint64(min(ta + w, u64_max)), side="right"))
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
    """:func:`count_coincidences` of two whole streams with the oracle matcher."""
    settings = _check_inputs(stream_a, stream_b, settings_filter)
    t_a, sign_a = _selected(stream_a, settings[0])
    t_b, sign_b = _selected(stream_b, settings[1])
    idx_a, idx_b = match_events_naive(t_a, t_b, window)
    cells = np.bincount((sign_a[idx_a].astype(np.intp) << 1) | sign_b[idx_b], minlength=4)
    singles = (*_sign_counts(sign_a), *_sign_counts(sign_b))
    return BlockCounts.from_arrays(cells, singles)
