#!/usr/bin/env python3
"""Throughput benchmark for the windowed coincidence matcher.

Generates two synthetic Poisson-like event streams, runs the production
matcher over them repeatedly and reports events matched per second per
core (the matcher is single-threaded).  The soft target is 10^7
events/second.  The naive reference engine is timed on a smaller slice,
and its counts there are compared with the production matcher's: the
script exits 1 when they differ.

The matcher's cost depends on how events cluster: a cluster is a run of
the merged A+B timeline that no gap wider than the window splits, and the
number of vectorized steps grows with the longest cluster.  The printed
share of events in clusters of more than 2 says which regime was measured
(with the defaults, most events sit in such clusters).  The longest
cluster that holds both stations is printed too: its events bound the
steps of the sweep.  The traced peak of one fast-engine call, taken
apart from the timed calls, shows what the longest cluster costs in
memory: the matcher holds one block plus that cluster.

The timings are informational — the benchmark is deliberately not a test,
so a slow container never turns into a red suite.

Usage:
    python scripts/benchmark_coincidence.py --events 4000000
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc

import numpy as np

from fairsample.coincidence import (
    CoincidenceWindow,
    count_coincidences,
    count_coincidences_naive,
)
from fairsample.quantum import Station
from fairsample.timetags import make_stream


def synth_stream(rng: np.random.Generator, station: Station, n: int, mean_gap: float):
    gaps = rng.exponential(mean_gap, size=n)
    t = np.cumsum(gaps).astype(np.uint64)
    sign = rng.integers(0, 2, size=n).astype(np.uint8)
    setting = rng.integers(0, 4, size=n).astype(np.uint8)
    return make_stream(station, 1000, t, sign, setting)


def _clusters(t_a: np.ndarray, t_b: np.ndarray, window: int):
    """A events and B events of each cluster of the merged timeline."""
    t = np.concatenate((t_a, t_b))
    if t.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    order = np.argsort(t, kind="stable")
    t = t[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(t) > np.uint64(window)) + 1))
    ends = np.append(starts[1:], t.size)
    n_a = np.add.reduceat((order < t_a.size).astype(np.int64), starts)
    return n_a, ends - starts - n_a


def cluster_gt2_share(t_a: np.ndarray, t_b: np.ndarray, window: int) -> float:
    """Share of all events that sit in clusters of more than 2 events."""
    n_a, n_b = _clusters(t_a, t_b, window)
    sizes = n_a + n_b
    return float(sizes[sizes > 2].sum()) / max(sizes.sum(), 1)


def longest_cluster(t_a: np.ndarray, t_b: np.ndarray, window: int) -> int:
    """Events in the longest cluster that holds both stations (0: none)."""
    n_a, n_b = _clusters(t_a, t_b, window)
    both = (n_a > 0) & (n_b > 0)
    return int((n_a + n_b)[both].max(initial=0))


def best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc during one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=4_000_000, help="events per side")
    parser.add_argument("--mean-gap", type=float, default=1000.0, help="mean gap between events, ticks")
    parser.add_argument("--window", type=int, default=500, help="coincidence window half-width, ticks")
    parser.add_argument("--repeats", type=int, default=5, help="timing repetitions (best is reported)")
    parser.add_argument("--naive-events", type=int, default=20_000, help="events per side for the reference engine")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    a = synth_stream(rng, Station.ALICE, args.events, args.mean_gap)
    b = synth_stream(rng, Station.BOB, args.events, args.mean_gap)
    window = CoincidenceWindow(args.window)

    counts = count_coincidences(a, b, window)
    dt = best_time(lambda: count_coincidences(a, b, window), args.repeats)
    total = 2 * args.events
    rate = total / dt
    peak = traced_peak(lambda: count_coincidences(a, b, window))

    n = args.naive_events
    a_small = synth_stream(rng, Station.ALICE, n, args.mean_gap)
    b_small = synth_stream(rng, Station.BOB, n, args.mean_gap)
    dt_naive = best_time(
        lambda: count_coincidences_naive(a_small, b_small, window), max(1, args.repeats // 2)
    )
    rate_naive = 2 * n / dt_naive
    agree = count_coincidences(a_small, b_small, window) == count_coincidences_naive(
        a_small, b_small, window
    )

    print(f"stream size       : {args.events:,} events/side, mean gap {args.mean_gap:g} ticks")
    print(f"window            : +/- {args.window} ticks")
    print(f"clusters > 2      : {cluster_gt2_share(a.t, b.t, args.window):.1%} of events")
    print(f"longest cluster   : {longest_cluster(a.t, b.t, args.window):,} events, both stations")
    print(f"coincidences      : {counts.total_coincidences:,}")
    print(f"fast engine       : {dt * 1e3:8.1f} ms  ->  {rate:,.0f} events/s/core")
    print(f"fast engine peak  : {peak / 1e6:8.2f} MB traced, one call")
    print(f"reference engine  : {dt_naive * 1e3:8.1f} ms on {n:,}/side  ->  {rate_naive:,.0f} events/s/core")
    print(f"engines agree     : {'yes' if agree else 'NO'}, on {n:,}/side")
    print(f"soft target       : 10,000,000 events/s/core -> {'met' if rate >= 1e7 else 'NOT met'}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
