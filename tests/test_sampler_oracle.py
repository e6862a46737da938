"""The closed-form sampler against the per-pair reference sampler.

Block mode (one multinomial draw), the event streams built from its
counts and their emission clock (uniform times under a Gamma(n + 1)
horizon) must reproduce the distributions of the per-pair oracle in
``pair_oracle``.  Seeds are pinned, so each test is a
fixed reproduction; the thresholds reject only gross disagreement.  The
stream tests run twice: at the production slice size, where each block
is one time slice, and cut into dozens to hundreds of slices.  The
jittered streams are checked against a per-photon oracle: the oracle's
clock plus one Gaussian per photon.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from fairsample import timetags
from fairsample.coincidence import CoincidenceWindow, count_coincidences
from fairsample.detection import (
    BlockCounts,
    EfficiencyConfig,
    PolicyKind,
    SamplingPolicy,
    category_probs,
    simulate_block,
)
from fairsample.quantum import OutcomeSign, SettingsPair, SourceState, Station, joint_prob_table
from pair_oracle import (
    HiddenVariable,
    count_oracle,
    detection_probability,
    emission_times,
    per_pair_detections,
    photon_ticks,
)
from stream_helpers import joined_slices

N_PAIRS = 300_000
P_MIN = 1e-3
# Observed pairs per time slice in the many-slice variants of the tests.
SLICE = 1 << 10


def _malus(d):
    return SamplingPolicy(PolicyKind.UNFAIR_MALUS, d=d)


CASES = {
    "fair": (
        SourceState(1.0), EfficiencyConfig(0.10, 0.05, 0.08, 0.08),
        SamplingPolicy(PolicyKind.FAIR), SettingsPair(0.4, 0.0),
    ),
    "malus_d0.5": (
        SourceState(1.0), EfficiencyConfig(0.35, 0.35, 0.35, 0.35),
        _malus(0.5), SettingsPair(0.6, 0.1),
    ),
    "malus_d1": (
        SourceState(0.7), EfficiencyConfig(0.5, 0.5, 0.5, 0.5),
        _malus(1.0), SettingsPair(0.3, 1.2),
    ),
    "unequal_eta": (
        SourceState(0.8), EfficiencyConfig(0.9, 0.3, 0.6, 0.2),
        _malus(0.5), SettingsPair(1.0, 0.25),
    ),
    "unit_eta": (
        SourceState(1.0), EfficiencyConfig(1.0, 1.0, 1.0, 1.0),
        SamplingPolicy(PolicyKind.FAIR), SettingsPair(0.3, 0.0),
    ),
    "unit_eta_malus_d1": (
        SourceState(1.0), EfficiencyConfig(1.0, 1.0, 1.0, 1.0),
        _malus(1.0), SettingsPair(0.9, 0.2),
    ),
}


def _partition(c: BlockCounts) -> np.ndarray:
    """The nine disjoint classes block counts determine: the four
    coincidence cells, one-station detections by channel, and no detection."""
    only_a_plus = c.s_a_plus - c.n_pp - c.n_pm
    only_a_minus = c.s_a_minus - c.n_mp - c.n_mm
    only_b_plus = c.s_b_plus - c.n_pp - c.n_mp
    only_b_minus = c.s_b_minus - c.n_pm - c.n_mm
    seen = [c.n_pp, c.n_pm, c.n_mp, c.n_mm, only_a_plus, only_a_minus, only_b_plus, only_b_minus]
    return np.array(seen + [c.n_pairs_emitted - sum(seen)])


def _categories(det) -> np.ndarray:
    """Counts of the 12 observed categories plus the unobserved pairs."""
    seen = det.detected_a | det.detected_b
    cells = (det.sign_a[seen].astype(np.intp) << 1) | det.sign_b[seen]
    detection = (det.detected_a[seen].astype(np.intp) << 1) | det.detected_b[seen]
    observed = np.bincount(3 * cells + detection - 1, minlength=12)
    return np.append(observed, det.n_pairs - observed.sum())


def _homogeneity_p(x: np.ndarray, y: np.ndarray) -> float:
    """Chi-square test that two count vectors come from one multinomial."""
    table = np.array([x, y])
    table = table[:, table.sum(axis=0) > 0]
    if table.shape[1] < 2:
        return 1.0
    return float(stats.chi2_contingency(table, correction=False).pvalue)


@pytest.mark.parametrize("name", CASES)
def test_category_probs_equal_lam_average_of_oracle(name):
    # The detection probabilities are trigonometric polynomials of degree at
    # most 4 in lam, period pi, so a 64-point midpoint rule averages them exactly.
    state, eff, policy, s = CASES[name]
    lams = (np.arange(64) + 0.5) * math.pi / 64
    table = joint_prob_table(state, s).as_tuple()
    expected = np.zeros((4, 2, 2))
    for cell, p_cell in enumerate(table):
        e_a, e_b = OutcomeSign(cell >> 1), OutcomeSign(cell & 1)
        for lam in lams:
            hv = HiddenVariable(lam)
            p_a = detection_probability(policy, eff, Station.ALICE, e_a, s.alpha, hv)
            p_b = detection_probability(policy, eff, Station.BOB, e_b, s.beta, hv)
            expected[cell] += np.outer([1 - p_a, p_a], [1 - p_b, p_b])
        expected[cell] *= p_cell / lams.size
    assert category_probs(*CASES[name]) == pytest.approx(expected, abs=1e-14)


@pytest.fixture(scope="module")
def oracle_runs():
    return {
        name: per_pair_detections(*case, N_PAIRS, seed=(71, k))
        for k, (name, case) in enumerate(CASES.items())
    }


@pytest.mark.parametrize("name", CASES)
def test_category_probs_fit_the_oracle(name, oracle_runs):
    counts = _categories(oracle_runs[name])
    probs = category_probs(*CASES[name]).reshape(4, 4)
    expected = N_PAIRS * np.append(probs[:, 1:].ravel(), probs[:, 0].sum())
    assert np.all(counts[expected == 0] == 0)
    keep = expected > 0
    p = stats.chisquare(counts[keep], expected[keep] * counts[keep].sum() / expected[keep].sum()).pvalue
    assert p > P_MIN


@pytest.mark.parametrize("name", CASES)
def test_block_matches_oracle(name, oracle_runs):
    block = simulate_block(*CASES[name], N_PAIRS, seed=(72, list(CASES).index(name)))
    oracle = count_oracle(oracle_runs[name])
    assert block.n_pairs_emitted == oracle.n_pairs_emitted == N_PAIRS
    assert _homogeneity_p(_partition(block), _partition(oracle)) > P_MIN


def _event_mode_matches_oracle(name, oracle_runs):
    # Event mode is block mode plus times: the streams, matched back at
    # window 0 without jitter, must hold the oracle's nine classes.  At
    # 1 ps ticks and 1 kHz two unrelated events share a tick with
    # probability about 3e-4.
    k = list(CASES).index(name)
    block = simulate_block(*CASES[name], N_PAIRS, seed=(73, k))
    a, b = joined_slices(block, 1e3, 1, 0.0, seed=(73, k, 1))
    matched = count_coincidences(a, b, CoincidenceWindow(0))
    matched = dataclasses.replace(matched, n_pairs_emitted=N_PAIRS)
    oracle = count_oracle(oracle_runs[name])
    assert _homogeneity_p(_partition(matched), _partition(oracle)) > P_MIN


@pytest.mark.parametrize("name", CASES)
def test_event_mode_matches_oracle(name, oracle_runs):
    _event_mode_matches_oracle(name, oracle_runs)


@pytest.mark.parametrize("name", CASES)
def test_event_mode_matches_oracle_in_many_slices(name, oracle_runs, monkeypatch):
    # Slices of at most 2**10 observed pairs: 44 to 293 slices per block.
    monkeypatch.setattr(timetags, "BLOCK", SLICE)
    _event_mode_matches_oracle(name, oracle_runs)


def test_zero_pairs_match_oracle():
    case = CASES["malus_d0.5"]
    zero = BlockCounts(0, 0, 0, 0, 0, 0, 0, 0, n_pairs_emitted=0)
    assert count_oracle(per_pair_detections(*case, 0, seed=1)) == zero
    block = simulate_block(*case, 0, seed=1)
    assert block == zero
    a, b = joined_slices(block, 250.0, 1000, 50.0, seed=1)
    assert len(a) == len(b) == 0


def _thinned_emission_gaps_match_oracle():
    # Sparse observation (about 14% of pairs), as in the quick-start run.
    n, rate, tick = 200_000, 250.0, 1000
    block = simulate_block(*CASES["fair"], n, seed=74)
    a, b = joined_slices(block, rate, tick, 0.0, seed=75)
    # Without jitter a pair seen at both stations has one tick in both
    # streams, so the union of the two is the observed pairs' clock.
    seen = np.union1d(a.t, b.t).astype(np.float64)
    observed = sum(_partition(block)[:8])
    assert seen.shape[0] == observed < 0.2 * n
    thinned = np.diff(seen, prepend=0.0)
    oracle = per_pair_detections(*CASES["fair"], n, seed=74)
    clock = emission_times(n, 1e12 / tick / rate, seed=76)
    clock = np.rint(clock[oracle.detected_a | oracle.detected_b])
    reference = np.diff(clock, prepend=0.0)
    assert stats.ks_2samp(thinned, reference).pvalue > P_MIN


def test_thinned_emission_gaps_match_oracle():
    _thinned_emission_gaps_match_oracle()


def test_thinned_emission_gaps_match_oracle_in_many_slices(monkeypatch):
    # 30 slices; their borders must leave no trace in the gaps.
    monkeypatch.setattr(timetags, "BLOCK", SLICE)
    _thinned_emission_gaps_match_oracle()


# Sampler 5 against the per-photon model.  Blocks of 200 emitted pairs of
# the "unequal_eta" case, about 140 of them observed, with a 50-tick jitter
# SD.  Per case: the mean gap in ticks, so that tau is about 200 gaps, and
# the observed pairs per slice (None: the production size, one slice).
JITTER_SD = 50.0
JITTER_BLOCKS = 400
JITTER_CASES = {
    # tau about 400 SD: the end zones are 40 SD at either end.
    "long": (100.0, None),
    # tau about 3 SD, under 80 SD: every pair lies in an end zone, and
    # most photons land outside [0, tau).
    "short": (0.75, None),
    # tau about 200 SD in about 9 slices of 22 SD: the end zones and the
    # 120 SD hold-back span several slices.
    "many_slices": (50.0, 16),
}


def _horizon(counts: BlockCounts, mean_gap_ticks: float, seed) -> float:
    """The tau that generate_slices draws: after the split and the first slice's uniforms."""
    unmatched = counts.unmatched()
    classes = np.concatenate([unmatched[:2], counts.as_array()[:4], unmatched[2:]])
    n_slices = max(1, -(-int(classes.sum()) // timetags.BLOCK))
    rng = np.random.default_rng(seed)
    first = rng.multinomial(classes, [1.0 / n_slices] * n_slices).T[0]
    rng.random(int(first.sum()))
    return rng.gamma(counts.n_pairs_emitted + 1, mean_gap_ticks) / n_slices * n_slices


def _nearest_offsets(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Signed offset from each time in ``a`` to the nearest one in sorted ``b``."""
    if not (a.shape[0] and b.shape[0]):
        return np.empty(0)
    j = np.searchsorted(b, a)
    before = b[np.maximum(j - 1, 0)] - a
    after = b[np.minimum(j, b.shape[0] - 1)] - a
    return np.where(np.abs(before) <= np.abs(after), before, after)


def _jitter_statistics(times, tau):
    """Samples of one block: each station's times, partner offsets and the end events.

    ``offset`` is each Alice event's offset to the nearest Bob event, which
    for most pairs seen at both stations is the partner's.  ``near_0``
    holds the times within 120 SD of 0 and ``near_tau`` the distances
    tau - t of those within 120 SD of tau, station by station.
    """
    a, b = (np.sort(t) for t in times)
    reach = 120 * JITTER_SD
    return {
        "alice": a, "bob": b, "offset": _nearest_offsets(a, b),
        **{f"near_0_{k}": t[t < reach] for k, t in enumerate((a, b))},
        **{f"near_tau_{k}": tau - t[t > tau - reach] for k, t in enumerate((a, b))},
    }


@pytest.mark.parametrize("name", JITTER_CASES)
def test_jittered_streams_match_per_photon_oracle(name, monkeypatch):
    # The sampler gives a pair's anchor photon its uniform time and Bob's
    # partner photon one N(0, 2 SD**2) offset, redrawing end-zone pairs from
    # the per-photon model.  Its streams must have the law of the oracle's:
    # its clock, one Gaussian per photon.  Both see the same categories.
    mean_gap, block = JITTER_CASES[name]
    if block is not None:
        monkeypatch.setattr(timetags, "BLOCK", block)
    rate = 1e9 / mean_gap
    k = list(JITTER_CASES).index(name)
    samples = {"sampler": [], "oracle": []}
    for i in range(JITTER_BLOCKS):
        det = per_pair_detections(*CASES["unequal_eta"], 200, seed=(81, k, i))
        counts = count_oracle(det)
        seed = (82, k, i)
        streams = joined_slices(counts, rate, 1000, JITTER_SD, seed)
        samples["sampler"].append(_jitter_statistics(
            [s.t.astype(np.float64) for s in streams], _horizon(counts, mean_gap, seed)
        ))
        tau, t_a, t_b = photon_ticks(det, mean_gap, JITTER_SD, seed=(83, k, i))
        samples["oracle"].append(_jitter_statistics((t_a, t_b), tau))
    for stat in samples["sampler"][0]:
        x, y = (np.concatenate([s[stat] for s in samples[m]]) for m in ("sampler", "oracle"))
        assert x.shape[0] > 1000, stat
        assert stats.ks_2samp(x, y).pvalue > P_MIN, stat
