"""Acceptance checks for the shipped toolkit.

One test per criterion; each prints a single PASS/FAIL verdict line (visible
even under normal pytest capture) before asserting, so a full run always
shows the per-criterion scoreboard.

Statistical criteria run on pinned seeds.  The RNG layer is deterministic
(PCG64 seeded through SeedSequence with a fixed draw order), so these are
stable reproductions, not flaky thresholds.
"""

import math
import time

import numpy as np
import pytest

from fairsample.coincidence import (
    CoincidenceWindow,
    count_coincidences,
    count_coincidences_naive,
)
from fairsample.config import config_from_dict
from fairsample.detection import (
    BlockCounts,
    EfficiencyConfig,
    PolicyKind,
    SamplingPolicy,
    simulate_block,
)
from fairsample.estimator import (
    ScanPoint,
    ScanResult,
    estimate_block,
    evenodd_sums_standard,
)
from fairsample.fits import FitModel, nosignalling_stats
from fairsample.pipeline import analyze_run, simulate_run
from fairsample.quantum import (
    SettingsPair,
    SourceState,
    Station,
    correlation_qt,
    joint_prob_table,
)
from fairsample.timetags import make_stream, read_ttg
from stream_helpers import write_stream

ANGLES_DEG = np.linspace(0.0, 180.0, 21)

SINGLET = SourceState(1.0)
FAIR = SamplingPolicy(PolicyKind.FAIR)


def _verdict(capsys, criterion: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nacceptance criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def _scan(state, eff, policy, pairs, seed_base) -> ScanResult:
    """Block-mode Alice scan over ANGLES_DEG at beta = 0."""
    points = []
    for i, a_deg in enumerate(ANGLES_DEG):
        alpha = math.radians(a_deg)
        counts = simulate_block(
            state, eff, policy, SettingsPair(alpha, 0.0), pairs, (seed_base, i)
        )
        points.append(
            ScanPoint(alpha=alpha, beta=0.0, counts=counts, est=estimate_block(counts))
        )
    return ScanResult(points=tuple(points))


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """Shared full-pipeline run for criteria 1 and 7.

    Singlet source, fair sampling, unequal Alice efficiencies and balanced
    Bob efficiencies; 21-point Alice scan with 10^6 pairs per point, through
    time tags on disk and back.
    """
    cfg = config_from_dict(
        {
            "schema_version": 1,
            "source": {"p": 1.0},
            "efficiencies": {
                "a_plus": 0.10,
                "a_minus": 0.05,
                "b_plus": 0.08,
                "b_minus": 0.08,
            },
            "policy": {"kind": "fair", "d": 0.0},
            "scan": {
                "varied": "alice",
                "angles_deg": [float(a) for a in ANGLES_DEG],
                "fixed_angle_deg": 0.0,
            },
            "pairs_per_point": 1_000_000,
            "pair_rate_hz": 250.0,
            "tick_resolution_ps": 1000,
            "jitter_sd_ticks": 50.0,
            "coincidence_window_ticks": 250,
            "dark_rate_hz": 0.0,
            "seed": 1234,
        }
    )
    out = tmp_path_factory.mktemp("acceptance_pipeline")
    t0 = time.monotonic()
    manifest = simulate_run(cfg, out, jobs=4)
    result = analyze_run(manifest, jobs=4)
    elapsed = time.monotonic() - t0
    return result, elapsed


def test_criterion_1_standard_correlation_reproduces_model(pipeline_run, capsys):
    """Full pipeline, 21-point scan: standard-normalized correlation matches
    -cos(2(alpha-beta)) with RMS < 0.01 and every point within 3 sigma, in
    under 60 s of simulate + analyze wall time."""
    result, elapsed = pipeline_run
    devs = []
    all_within = True
    worst_z = 0.0
    for pt in result.scan.points:
        model = correlation_qt(SINGLET, SettingsPair(pt.alpha, pt.beta))
        e = pt.est.correlation_standard
        s = pt.est.sigma.correlation_standard
        dev = e - model
        devs.append(dev)
        if abs(dev) > 3 * s:
            all_within = False
        if s > 0:
            worst_z = max(worst_z, abs(dev) / s)
    rms = float(np.sqrt(np.mean(np.square(devs))))
    ok = rms < 0.01 and all_within and elapsed < 60.0
    _verdict(
        capsys,
        1,
        ok,
        f"RMS={rms:.5f} (limit 0.01), worst |z|={worst_z:.2f} (limit 3), "
        f"wall time {elapsed:.1f}s (limit 60s)",
    )
    assert rms < 0.01
    assert all_within
    assert elapsed < 60.0


def test_criterion_2_singles_normalization_is_efficiency_invariant(capsys):
    """Balanced vs imbalanced detector efficiencies: singles-normalized joint
    probabilities agree within combined 3 sigma at every scan point, while the
    standard normalization of the imbalanced run is pulled to 0.667."""
    eff_bal = EfficiencyConfig(0.08, 0.08, 0.08, 0.08)
    eff_imb = EfficiencyConfig(0.10, 0.05, 0.08, 0.08)
    pairs = 1_000_000
    all_within = True
    worst_z = 0.0
    pooled = np.zeros(8, dtype=np.int64)
    for i, a_deg in enumerate(ANGLES_DEG):
        s = SettingsPair(math.radians(a_deg), 0.0)
        cb = simulate_block(SINGLET, eff_bal, FAIR, s, pairs, (11, i))
        ci = simulate_block(SINGLET, eff_imb, FAIR, s, pairs, (12, i))
        eb, ei = estimate_block(cb), estimate_block(ci)
        for k in range(4):
            d = abs(eb.joint.as_tuple()[k] - ei.joint.as_tuple()[k])
            comb = math.hypot(eb.sigma.joint[k], ei.sigma.joint[k])
            if d > 3 * comb and d > 0:
                all_within = False
            if comb > 0:
                worst_z = max(worst_z, d / comb)
        pooled += [
            ci.n_pp, ci.n_pm, ci.n_mp, ci.n_mm,
            ci.s_a_plus, ci.s_a_minus, ci.s_b_plus, ci.s_b_minus,
        ]
    m_std = evenodd_sums_standard(BlockCounts(*[int(v) for v in pooled])).a_plus
    biased = abs(m_std - 0.667) <= 0.01
    ok = all_within and biased
    _verdict(
        capsys,
        2,
        ok,
        f"joint estimates: worst |z|={worst_z:.2f} (limit 3); "
        f"imbalanced standard marginal {m_std:.4f} (target 0.667±0.01)",
    )
    assert all_within
    assert biased


def test_criterion_3_partially_entangled_marginals(capsys):
    """p=0.7 Alice scan: the singles-normalized Alice marginals trace the
    predicted setting dependence with RMS < 0.01, with at least 1e5
    coincidences per point.

    The channel-ratio estimator swaps outcome labels within a station (the
    plus estimate follows the minus-channel physics and vice versa), so the
    minus estimate is the one compared against the plus-outcome curve.
    """
    state = SourceState(0.7)
    eff = EfficiencyConfig(0.25, 0.25, 0.25, 0.25)
    scan = _scan(state, eff, FAIR, 2_000_000, 3141)
    sq_devs = []
    min_coinc = None
    for pt in scan.points:
        t = joint_prob_table(state, SettingsPair(pt.alpha, 0.0))
        curve = t.p_pp + t.p_pm
        sq_devs.append((pt.est.marginals.a_minus - curve) ** 2)
        sq_devs.append((pt.est.marginals.a_plus - (1.0 - curve)) ** 2)
        n = pt.counts.total_coincidences
        min_coinc = n if min_coinc is None else min(min_coinc, n)
    rms = math.sqrt(float(np.mean(sq_devs)))
    ok = rms < 0.01 and min_coinc >= 100_000
    _verdict(
        capsys,
        3,
        ok,
        f"RMS={rms:.5f} (limit 0.01), min coincidences/point={min_coinc} (limit 1e5)",
    )
    assert rms < 0.01
    assert min_coinc >= 100_000


def test_criterion_4_fairness_test_dichotomy(capsys):
    """20 seeded repetitions per arm: the no-signalling check accepts fair
    sampling (cosine-vs-constant p >= 0.01) and rejects the biased policy at
    d=0.5 (modulation amplitude above 5 sigma) in at least 95% of reps."""
    eff = EfficiencyConfig(0.35, 0.35, 0.35, 0.35)
    unfair = SamplingPolicy(PolicyKind.UNFAIR_MALUS, d=0.5)
    pairs = 600_000
    reps = 20
    fair_ps = []
    unfair_zs = []
    for r in range(reps):
        scan = _scan(SINGLET, eff, FAIR, pairs, (900, r))
        fit = nosignalling_stats(scan, varied=Station.ALICE).marginals["b_plus"].fits[
            FitModel.COSINE
        ]
        fair_ps.append(fit.p_value)
        scan = _scan(SINGLET, eff, unfair, pairs, (800, r))
        fit = nosignalling_stats(scan, varied=Station.ALICE).marginals["b_plus"].fits[
            FitModel.COSINE
        ]
        unfair_zs.append(fit.amplitude / fit.amplitude_sigma)
    fair_pass = sum(p >= 0.01 for p in fair_ps)
    unfair_pass = sum(z > 5.0 for z in unfair_zs)
    need = math.ceil(0.95 * reps)
    ok = fair_pass >= need and unfair_pass >= need
    _verdict(
        capsys,
        4,
        ok,
        f"fair arm {fair_pass}/{reps} with p>=0.01 (min p={min(fair_ps):.4f}); "
        f"unfair arm {unfair_pass}/{reps} with amplitude>5σ (min z={min(unfair_zs):.2f})",
    )
    assert fair_pass >= need
    assert unfair_pass >= need


def test_criterion_5_fast_matcher_equals_reference(capsys):
    """1000 randomized event blocks (up to 200 events per side, random
    windows, settings and filters): the production matcher and the reference
    matcher produce identical counts."""
    rng = np.random.default_rng(97)
    mismatches = 0
    for _ in range(1000):
        n_a = int(rng.integers(0, 201))
        n_b = int(rng.integers(0, 201))
        span = int(rng.integers(1, 5000))
        streams = []
        for station, n in ((Station.ALICE, n_a), (Station.BOB, n_b)):
            t = np.sort(rng.integers(0, span, size=n)).astype(np.uint64)
            sign = rng.integers(0, 2, size=n).astype(np.uint8)
            setting = rng.integers(0, 4, size=n).astype(np.uint8)
            streams.append(make_stream(station, 1000, t, sign, setting))
        window = CoincidenceWindow(int(rng.integers(0, 64)))
        settings_filter = None
        if rng.random() < 0.3:
            settings_filter = (int(rng.integers(0, 4)), int(rng.integers(0, 4)))
        fast = count_coincidences(streams[0], streams[1], window, settings_filter)
        slow = count_coincidences_naive(streams[0], streams[1], window, settings_filter)
        if fast != slow:
            mismatches += 1
    ok = mismatches == 0
    _verdict(capsys, 5, ok, f"{1000 - mismatches}/1000 randomized blocks identical")
    assert mismatches == 0


def test_criterion_6_ttg_round_trip(tmp_path, capsys):
    """100 random streams: write -> read recovers the stream exactly and
    re-serialization is byte-identical."""
    rng = np.random.default_rng(6)
    failures = 0
    for i in range(100):
        n = int(rng.integers(0, 400))
        gaps = rng.integers(0, 1000, size=n).astype(np.uint64)
        t = np.cumsum(gaps, dtype=np.uint64)
        sign = rng.integers(0, 2, size=n).astype(np.uint8)
        setting = rng.integers(0, 4, size=n).astype(np.uint8)
        station = Station.ALICE if i % 2 == 0 else Station.BOB
        tick = int(rng.choice([1, 250, 1000]))
        stream = make_stream(station, tick, t, sign, setting)
        path = tmp_path / f"s{i}.ttg"
        write_stream(stream, path)
        back = read_ttg(path)
        same = (
            back.station == stream.station
            and back.tick_resolution_ps == stream.tick_resolution_ps
            and np.array_equal(back.t, stream.t)
            and np.array_equal(back.sign, stream.sign)
            and np.array_equal(back.setting_index, stream.setting_index)
        )
        again = tmp_path / f"s{i}_again.ttg"
        write_stream(back, again)
        if not (same and path.read_bytes() == again.read_bytes()):
            failures += 1
    ok = failures == 0
    _verdict(capsys, 6, ok, f"{100 - failures}/100 streams round-trip byte-identically")
    assert failures == 0


def test_criterion_7_normalizations_agree_for_balanced_bob(pipeline_run, capsys):
    """On the shared pipeline run (balanced Bob efficiencies), the standard
    and singles-normalized correlations agree within combined 3 sigma at
    every scan point."""
    result, _ = pipeline_run
    all_within = True
    worst_z = 0.0
    for pt in result.scan.points:
        e1 = pt.est.correlation_standard
        s1 = pt.est.sigma.correlation_standard
        e2 = pt.est.correlation_singles
        s2 = pt.est.sigma.correlation_singles
        comb = math.hypot(s1, s2)
        d = abs(e1 - e2)
        if d > 3 * comb:
            all_within = False
        if comb > 0:
            worst_z = max(worst_z, d / comb)
    ok = all_within
    _verdict(capsys, 7, ok, f"worst |z|={worst_z:.2f} (limit 3) across 21 points")
    assert all_within
