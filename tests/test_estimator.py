"""Normalization estimators: f-ratios, joint/marginal recovery, uncertainties."""

import math

import numpy as np
import pytest

from fairsample.detection import (
    BlockCounts,
    EfficiencyConfig,
    PolicyKind,
    SamplingPolicy,
    simulate_block,
)
from fairsample.estimator import (
    AllZeroRatios,
    FRatios,
    NoCoincidences,
    ZeroSingles,
    correlation_standard,
    counting_uncertainties,
    estimate_block,
    estimate_joint,
    estimate_marginals,
    evenodd_sums_standard,
    f_ratios,
    marginal_standard,
)
from fairsample.quantum import OutcomeSign, SettingsPair, SourceState, Station

FAIR = SamplingPolicy(PolicyKind.FAIR)
ETA_MIXED = EfficiencyConfig(0.10, 0.05, 0.08, 0.08)


def _counts(n_pp, n_pm, n_mp, n_mm, s=10_000):
    return BlockCounts(n_pp, n_pm, n_mp, n_mm, s, s, s, s)


# ---------------------------------------------------------------------------
# f_ratios
# ---------------------------------------------------------------------------


def test_f_ratios_symmetric_case():
    f = f_ratios(BlockCounts(25, 25, 25, 25, 1000, 1000, 1000, 1000))
    assert f.as_tuple() == pytest.approx((6.25e-6,) * 4, rel=1e-12)


def test_f_ratios_scale_cancellation():
    # Doubling a channel's singles and its coincidences leaves f unchanged.
    f = f_ratios(BlockCounts(50, 50, 25, 25, 2000, 1000, 1000, 1000))
    assert f.f_pp == pytest.approx(6.25e-6, rel=1e-12)
    assert f.f_pm == pytest.approx(6.25e-6, rel=1e-12)


def test_f_ratios_zero_singles_names_channel():
    counts = BlockCounts(0, 0, 5, 0, 0, 10, 8, 10)
    with pytest.raises(ZeroSingles, match="s_a_plus"):
        f_ratios(counts)


def test_f_ratios_all_zero_coincidences_is_fine():
    f = f_ratios(BlockCounts(0, 0, 0, 0, 10, 10, 10, 10))
    assert f.as_tuple() == (0.0, 0.0, 0.0, 0.0)
    assert f.total == 0.0


def test_f_ratios_rejects_negative():
    with pytest.raises(ValueError):
        FRatios(-1e-6, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# estimate_joint / estimate_marginals
# ---------------------------------------------------------------------------


def test_estimate_joint_equal_ratios():
    q = estimate_joint(FRatios(3e-6, 3e-6, 3e-6, 3e-6))
    assert q.as_tuple() == pytest.approx((0.25,) * 4, abs=1e-15)


def test_estimate_joint_scale_invariance():
    q1 = estimate_joint(FRatios(0.0, 0.8e-6, 0.2e-6, 0.0))
    q2 = estimate_joint(FRatios(0.0, 8e-3, 2e-3, 0.0))
    assert q1.as_tuple() == pytest.approx((0.0, 0.8, 0.2, 0.0), abs=1e-15)
    assert q2.as_tuple() == pytest.approx(q1.as_tuple(), abs=1e-15)


def test_estimate_joint_all_zero_raises():
    with pytest.raises(AllZeroRatios):
        estimate_joint(FRatios(0.0, 0.0, 0.0, 0.0))


def test_estimate_joint_simulated_asymmetric_source():
    # p=0.5 at α=β=0: the source table is (0, 0.8, 0.2, 0) but the
    # singles-normalized estimator divides each cell by its own channel
    # occupations, which swaps the off-diagonal weights: the estimate
    # converges to (0, 0.2, 0.8, 0).  The empty cells stay exactly zero.
    counts = simulate_block(
        SourceState(0.5), ETA_MIXED, FAIR, SettingsPair(0.0, 0.0), 1_000_000, seed=101
    )
    est = estimate_block(counts)
    q = est.joint
    assert q.p_pp == 0.0 and q.p_mm == 0.0
    assert q.p_pm == pytest.approx(0.2, abs=3 * est.sigma.joint[1])
    assert q.p_mp == pytest.approx(0.8, abs=3 * est.sigma.joint[2])


def test_estimate_marginals_exact_table_identity():
    # Feeding ratios proportional to the true joint table recovers the true
    # marginals exactly — the estimator is algebraically exact in that limit.
    f = FRatios(0.0, 0.8, 0.2, 0.0)
    m = estimate_marginals(f)
    assert m.a_plus == pytest.approx(0.8, abs=1e-15)
    assert m.a_minus == pytest.approx(0.2, abs=1e-15)
    assert m.b_plus == pytest.approx(0.2, abs=1e-15)
    assert m.b_minus == pytest.approx(0.8, abs=1e-15)


def test_estimate_marginals_singlet_half():
    counts = simulate_block(
        SourceState(1.0), ETA_MIXED, FAIR, SettingsPair(0.3, 0.1), 500_000, seed=102
    )
    est = estimate_block(counts)
    for value, sigma in zip(est.marginals.as_tuple(), est.sigma.marginals):
        assert value == pytest.approx(0.5, abs=3 * sigma)


def test_estimate_marginals_swapped_channels_at_asymmetric_source():
    # Companion to the joint-table swap: at p=0.5, α=0 the true A⁺ marginal
    # is 0.8 and it is the *minus*-channel estimate that recovers it.
    counts = simulate_block(
        SourceState(0.5), ETA_MIXED, FAIR, SettingsPair(0.0, 0.0), 1_000_000, seed=103
    )
    est = estimate_block(counts)
    ia = 1  # a_minus position in the marginal tuple
    assert est.marginals.a_minus == pytest.approx(0.8, abs=3 * est.sigma.marginals[ia])
    assert est.marginals.a_plus == pytest.approx(0.2, abs=3 * est.sigma.marginals[0])


def test_marginal_pair_sums_are_one():
    counts = simulate_block(
        SourceState(0.7), ETA_MIXED, FAIR, SettingsPair(0.5, 0.2), 200_000, seed=104
    )
    m = estimate_block(counts).marginals
    assert m.a_plus + m.a_minus == pytest.approx(1.0, abs=1e-12)
    assert m.b_plus + m.b_minus == pytest.approx(1.0, abs=1e-12)


def test_estimate_efficiency_invariance():
    # The whole point of singles normalization: two blocks that differ only
    # in channel efficiencies estimate the same joint table.
    eta_flat = EfficiencyConfig(0.08, 0.08, 0.08, 0.08)
    s = SettingsPair(math.pi / 8, 0.0)
    e1 = estimate_block(simulate_block(SourceState(1.0), ETA_MIXED, FAIR, s, 200_000, seed=71))
    e2 = estimate_block(simulate_block(SourceState(1.0), eta_flat, FAIR, s, 200_000, seed=72))
    for q1, q2, s1, s2 in zip(
        e1.joint.as_tuple(), e2.joint.as_tuple(), e1.sigma.joint, e2.sigma.joint
    ):
        assert abs(q1 - q2) <= 3 * math.hypot(s1, s2)


# ---------------------------------------------------------------------------
# Standard (coincidence-normalized) quantities
# ---------------------------------------------------------------------------


def test_correlation_standard_flat_counts():
    assert correlation_standard(_counts(25, 25, 25, 25)) == 0.0


def test_correlation_standard_diagonal_counts():
    assert correlation_standard(_counts(100, 0, 0, 100)) == 1.0


def test_correlation_standard_no_coincidences():
    with pytest.raises(NoCoincidences):
        correlation_standard(_counts(0, 0, 0, 0))


def test_correlation_standard_singlet_simulation():
    # Balanced Bob channels leave the standard correlation unbiased for the
    # singlet even with imbalanced Alice channels.
    counts = simulate_block(
        SourceState(1.0), ETA_MIXED, FAIR, SettingsPair(math.pi / 8, 0.0), 1_000_000, seed=105
    )
    sig = counting_uncertainties(counts)
    expected = -math.cos(math.pi / 4)
    assert correlation_standard(counts) == pytest.approx(
        expected, abs=3 * sig.correlation_standard
    )


def test_marginal_standard_balanced():
    eta_flat = EfficiencyConfig(0.08, 0.08, 0.08, 0.08)
    counts = simulate_block(
        SourceState(1.0), eta_flat, FAIR, SettingsPair(0.4, 0.0), 500_000, seed=106
    )
    sig = counting_uncertainties(counts)
    got = marginal_standard(counts, Station.ALICE, OutcomeSign.PLUS)
    assert got == pytest.approx(0.5, abs=3 * sig.marginals_standard[0])


def test_marginal_standard_imbalanced_alice_is_biased():
    # η_A⁺/η_A⁻ = 2 turns the true 0.5 into 0.10/(0.10+0.05) = 2/3: the
    # coincidence-normalized marginal inherits the efficiency imbalance.
    counts = simulate_block(
        SourceState(1.0), ETA_MIXED, FAIR, SettingsPair(0.4, 0.0), 1_000_000, seed=107
    )
    sig = counting_uncertainties(counts)
    got = marginal_standard(counts, Station.ALICE, OutcomeSign.PLUS)
    assert got == pytest.approx(2.0 / 3.0, abs=3 * sig.marginals_standard[0])
    assert abs(got - 0.5) > 10 * sig.marginals_standard[0]


def test_marginal_standard_exact_ratio():
    counts = _counts(300, 500, 100, 100)
    assert marginal_standard(counts, Station.ALICE, OutcomeSign.PLUS) == pytest.approx(0.8)
    assert marginal_standard(counts, Station.ALICE, OutcomeSign.MINUS) == pytest.approx(0.2)
    assert marginal_standard(counts, Station.BOB, OutcomeSign.PLUS) == pytest.approx(0.4)
    assert marginal_standard(counts, Station.BOB, OutcomeSign.MINUS) == pytest.approx(0.6)


def test_marginal_standard_no_coincidences():
    with pytest.raises(NoCoincidences):
        marginal_standard(_counts(0, 0, 0, 0), Station.BOB, OutcomeSign.PLUS)


def test_evenodd_sums_standard_values():
    sums = evenodd_sums_standard(_counts(10, 40, 20, 30))
    assert sums.a_plus == pytest.approx(0.5)
    assert sums.a_minus == pytest.approx(0.5)
    assert sums.b_plus == pytest.approx(0.3)
    assert sums.b_minus == pytest.approx(0.7)


def test_evenodd_sums_standard_degenerate_table():
    sums = evenodd_sums_standard(_counts(80, 0, 0, 20))
    assert sums.a_plus == pytest.approx(0.8)
    assert sums.b_plus == pytest.approx(0.8)
    sums = evenodd_sums_standard(_counts(100, 0, 0, 0))
    assert sums.as_tuple() == pytest.approx((1.0, 0.0, 1.0, 0.0))


# ---------------------------------------------------------------------------
# Uncertainties
# ---------------------------------------------------------------------------


def test_sigma_correlation_standard_frozen_value():
    sig = counting_uncertainties(_counts(2500, 2500, 2500, 2500))
    assert sig.correlation_standard == pytest.approx(0.01, rel=1e-12)


def test_sigma_marginal_standard_frozen_value():
    sig = counting_uncertainties(_counts(2500, 2500, 2500, 2500))
    # Binomial error of a 0.5 ratio over 10^4 coincidences.
    assert sig.marginals_standard[0] == pytest.approx(0.005, rel=1e-12)


def test_sigma_f_is_poisson_dominated_for_large_singles():
    counts = BlockCounts(10_000, 10_000, 10_000, 10_000, 10**8, 10**8, 10**8, 10**8)
    sig = counting_uncertainties(counts)
    f = f_ratios(counts)
    # With singles this large the f-ratio error reduces to √N/N = 1%.
    assert sig.f[0] / f.f_pp == pytest.approx(0.01, rel=1e-3)


def test_uncertainties_never_raise():
    zero = BlockCounts(0, 0, 0, 0, 0, 0, 0, 0)
    sig = counting_uncertainties(zero)
    assert sig.low_statistics
    assert math.isnan(sig.correlation_standard)
    assert all(math.isnan(v) for v in sig.joint)


def test_low_statistics_flag():
    assert counting_uncertainties(_counts(5, 100, 100, 100)).low_statistics
    assert not counting_uncertainties(_counts(100, 100, 100, 100)).low_statistics


def test_sigmas_match_monte_carlo_resampling():
    # Independent-Poisson resampling around observed counts is the model the
    # propagated errors linearize; they must agree to first order.
    counts = simulate_block(
        SourceState(1.0),
        EfficiencyConfig(0.2, 0.2, 0.2, 0.2),
        FAIR,
        SettingsPair(math.pi / 8, 0.0),
        200_000,
        seed=108,
    )
    sig = counting_uncertainties(counts)
    rng = np.random.default_rng(109)
    base = np.array(
        [
            counts.n_pp,
            counts.n_pm,
            counts.n_mp,
            counts.n_mm,
            counts.s_a_plus,
            counts.s_a_minus,
            counts.s_b_plus,
            counts.s_b_minus,
        ],
        dtype=float,
    )
    n_draws = 3000
    draws = rng.poisson(base, size=(n_draws, 8))
    e_std, q_pm, m_bp = [], [], []
    for row in draws:
        c = BlockCounts(*[int(v) for v in row])
        est = estimate_block(c)
        e_std.append(est.correlation_standard)
        q_pm.append(est.joint.p_pm)
        m_bp.append(est.marginals.b_plus)
    assert float(np.std(e_std)) == pytest.approx(sig.correlation_standard, rel=0.10)
    assert float(np.std(q_pm)) == pytest.approx(sig.joint[1], rel=0.10)
    assert float(np.std(m_bp)) == pytest.approx(sig.marginals[2], rel=0.10)


# ---------------------------------------------------------------------------
# estimate_block plumbing
# ---------------------------------------------------------------------------


def test_estimate_block_is_consistent_with_parts():
    counts = simulate_block(
        SourceState(0.8), ETA_MIXED, FAIR, SettingsPair(0.7, 0.1), 100_000, seed=110
    )
    est = estimate_block(counts)
    f = f_ratios(counts)
    assert est.joint.as_tuple() == pytest.approx(estimate_joint(f).as_tuple(), abs=1e-15)
    assert est.correlation_standard == pytest.approx(correlation_standard(counts), abs=1e-15)
    assert est.correlation_singles == pytest.approx(est.joint.correlation(), abs=1e-15)


@pytest.mark.parametrize("cells", [(3880, 0, 0, 2022), (0, 3880, 2022, 0)])
def test_singles_correlation_exact_at_perfect_correlation(cells):
    # Without the opposite-parity cells both correlations are exactly +-1,
    # where the counting uncertainty of the singles correlation vanishes.
    counts = BlockCounts(*cells, 49762, 24970, 40000, 39927)
    est = estimate_block(counts)
    assert est.correlation_singles == est.correlation_standard
    assert abs(est.correlation_singles) == 1.0
