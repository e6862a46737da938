"""The closed-form samplers against the per-pair reference sampler.

Block mode (one multinomial draw), event mode (thinned observed pairs)
and the thinned emission clock must reproduce the distributions of the
per-pair oracle in ``pair_oracle``.  Seeds are pinned, so each test is a
fixed reproduction; the thresholds reject only gross disagreement.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from fairsample.detection import (
    BlockCounts,
    EfficiencyConfig,
    PolicyKind,
    SamplingPolicy,
    category_probs,
    count_detections,
    simulate_block,
    simulate_pair_detections,
)
from fairsample.quantum import OutcomeSign, SettingsPair, SourceState, Station, joint_prob_table
from fairsample.timetags import generate_streams
from pair_oracle import HiddenVariable, detection_probability, emission_times, per_pair_detections

N_PAIRS = 300_000
P_MIN = 1e-3


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
    oracle = count_detections(oracle_runs[name])
    assert block.n_pairs_emitted == oracle.n_pairs_emitted == N_PAIRS
    assert _homogeneity_p(_partition(block), _partition(oracle)) > P_MIN


@pytest.mark.parametrize("name", CASES)
def test_event_mode_matches_oracle(name, oracle_runs):
    det = simulate_pair_detections(*CASES[name], N_PAIRS, seed=(73, list(CASES).index(name)))
    oracle = oracle_runs[name]
    assert _homogeneity_p(_categories(det), _categories(oracle)) > P_MIN
    assert _homogeneity_p(
        _partition(count_detections(det)), _partition(count_detections(oracle))
    ) > P_MIN


def test_zero_pairs_match_oracle():
    case = CASES["malus_d0.5"]
    zero = BlockCounts(0, 0, 0, 0, 0, 0, 0, 0, n_pairs_emitted=0)
    assert count_detections(per_pair_detections(*case, 0, seed=1)) == zero
    assert count_detections(simulate_pair_detections(*case, 0, seed=1)) == zero
    block = simulate_block(*case, 0, seed=1)
    assert dataclasses.replace(block, alpha=math.nan, beta=math.nan) == zero


def test_thinned_emission_gaps_match_oracle():
    # Sparse observation (about 14% of pairs), as in the quick-start run.
    n, rate, tick = 200_000, 250.0, 1000
    det = simulate_pair_detections(*CASES["fair"], n, seed=74)
    assert det.index.shape[0] < 0.2 * n
    # Record every observed pair at Alice, without jitter, to read the
    # emission clock at the observed indices.
    det = dataclasses.replace(det, detected_a=np.ones(det.index.shape[0], dtype=bool))
    stream, _ = generate_streams(det, rate, tick, 0.0, seed=75)
    thinned = np.diff(stream.t.astype(np.float64), prepend=0.0)
    clock = np.rint(emission_times(n, 1e12 / tick / rate, seed=76)[det.index])
    reference = np.diff(clock, prepend=0.0)
    assert stats.ks_2samp(thinned, reference).pvalue > P_MIN
