"""Normalization estimators: joint/marginal recovery, correlations, uncertainties."""

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
    NoCoincidences,
    ZeroSingles,
    correlation_standard,
    counting_uncertainties,
    estimate_block,
    evenodd_sums_standard,
)
from fairsample.quantum import SettingsPair, SourceState

FAIR = SamplingPolicy(PolicyKind.FAIR)
ETA_MIXED = EfficiencyConfig(0.10, 0.05, 0.08, 0.08)


def _counts(n_pp, n_pm, n_mp, n_mm, s=10_000):
    return BlockCounts(n_pp, n_pm, n_mp, n_mm, s, s, s, s)


# ---------------------------------------------------------------------------
# Singles normalization: each cell over the product of its singles counts
# ---------------------------------------------------------------------------


def test_f_ratios_symmetric_case():
    est = estimate_block(BlockCounts(25, 25, 25, 25, 1000, 1000, 1000, 1000))
    assert est.joint.as_tuple() == pytest.approx((0.25,) * 4, rel=1e-12)


def test_f_ratios_scale_cancellation():
    # Doubling a channel's singles and its coincidences leaves the table
    # unchanged.
    est = estimate_block(BlockCounts(50, 50, 25, 25, 2000, 1000, 1000, 1000))
    assert est.joint.p_pp == pytest.approx(0.25, rel=1e-12)
    assert est.joint.p_pm == pytest.approx(0.25, rel=1e-12)


def test_f_ratios_zero_singles_names_channel():
    counts = BlockCounts(0, 0, 5, 0, 0, 10, 8, 10)
    with pytest.raises(ZeroSingles, match="s_a_plus"):
        estimate_block(counts)


def test_f_ratios_all_zero_coincidences_is_fine():
    # Nonzero singles make every weight defined; only the all-zero table
    # is not, and its uncertainties come back NaN instead of raising.
    sig = counting_uncertainties(BlockCounts(0, 0, 0, 0, 10, 10, 10, 10))
    assert all(math.isnan(v) for v in sig.joint + sig.marginals)
    assert math.isnan(sig.correlation_singles)


# ---------------------------------------------------------------------------
# Joint table and marginals of the singles normalization
# ---------------------------------------------------------------------------


def test_estimate_joint_equal_ratios():
    est = estimate_block(BlockCounts(30, 30, 30, 30, 100, 100, 100, 100))
    assert est.joint.as_tuple() == pytest.approx((0.25,) * 4, abs=1e-15)


def test_estimate_joint_scale_invariance():
    # Cells over their singles products are 0.008 and 0.002: a 4:1 table.
    q1 = estimate_block(BlockCounts(0, 40, 40, 0, 50, 100, 200, 100)).joint
    q2 = estimate_block(
        BlockCounts(0, 40_000, 40_000, 0, 50_000, 100_000, 200_000, 100_000)
    ).joint
    assert q1.as_tuple() == pytest.approx((0.0, 0.8, 0.2, 0.0), abs=1e-15)
    assert q2.as_tuple() == pytest.approx(q1.as_tuple(), abs=1e-15)


def test_estimate_joint_all_zero_raises():
    with pytest.raises(AllZeroRatios):
        estimate_block(BlockCounts(0, 0, 0, 0, 10, 10, 10, 10))


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
    # Counts whose singles-weighted cells are proportional to the true joint
    # table recover the true marginals exactly — the estimator is
    # algebraically exact in that limit.
    m = estimate_block(BlockCounts(0, 80, 20, 0, 100, 100, 100, 100)).marginals
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
    est = estimate_block(counts)
    for m in (est.marginals, evenodd_sums_standard(counts)):
        assert m.a_plus + m.a_minus == pytest.approx(1.0, abs=1e-12)
        assert m.b_plus + m.b_minus == pytest.approx(1.0, abs=1e-12)
    # Minus = 1 - Plus has Plus's sigma: the no-signalling fits use Plus alone.
    for sigmas in (est.sigma.marginals, est.sigma.marginals_standard):
        a_plus, a_minus, b_plus, b_minus = sigmas
        assert min(sigmas) > 0.0
        assert a_minus == pytest.approx(a_plus, rel=1e-12)
        assert b_minus == pytest.approx(b_plus, rel=1e-12)


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
    got = evenodd_sums_standard(counts).a_plus
    assert got == pytest.approx(0.5, abs=3 * sig.marginals_standard[0])


def test_marginal_standard_imbalanced_alice_is_biased():
    # η_A⁺/η_A⁻ = 2 turns the true 0.5 into 0.10/(0.10+0.05) = 2/3: the
    # coincidence-normalized marginal inherits the efficiency imbalance.
    counts = simulate_block(
        SourceState(1.0), ETA_MIXED, FAIR, SettingsPair(0.4, 0.0), 1_000_000, seed=107
    )
    sig = counting_uncertainties(counts)
    got = evenodd_sums_standard(counts).a_plus
    assert got == pytest.approx(2.0 / 3.0, abs=3 * sig.marginals_standard[0])
    assert abs(got - 0.5) > 10 * sig.marginals_standard[0]


def test_marginal_standard_exact_ratio():
    sums = evenodd_sums_standard(_counts(300, 500, 100, 100))
    assert sums.a_plus == pytest.approx(0.8)
    assert sums.a_minus == pytest.approx(0.2)
    assert sums.b_plus == pytest.approx(0.4)
    assert sums.b_minus == pytest.approx(0.6)


def test_marginal_standard_no_coincidences():
    with pytest.raises(NoCoincidences):
        evenodd_sums_standard(_counts(0, 0, 0, 0))


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


# Every value and sigma of four blocks: balanced (eta 0.08 on every
# channel), imbalanced (eta 0.10/0.05/0.08/0.08), perfectly correlated, and
# one whose Alice + channel has no coincidences.  Values are the joint
# table, the singles marginals, the standard sums, then the standard and
# singles correlations; sigmas are in the same order.  The perfectly
# correlated block's correlation sigmas are exactly zero, and so are the
# sigmas of the last block's Alice marginals, which are exactly 0 and 1.
PINNED = [
    (
        BlockCounts(496, 2769, 2716, 466, 39899, 40095, 39818, 40350),
        (0.07763558466763922, 0.42769877902075515, 0.4230392955464962,
         0.07162634076510942, 0.5053343636883944, 0.49466563631160565,
         0.5006748802141354, 0.4993251197858646, 0.5064371025283078,
         0.49356289747169224, 0.4982162246005894, 0.5017837753994105,
         -0.7015666201333953, -0.7014761491345027),
        (0.0033687706091628574, 0.006515647702009254, 0.006512567329329328,
         0.0032183317124338273, 0.006590550621550914, 0.006590550621550914,
         0.006590498952530003, 0.006590498952530003, 0.006226660329092293,
         0.006226660329092293, 0.006227136784573384, 0.006227136784573384,
         0.00887502003890457, 0.008877711120697438),
    ),
    (
        BlockCounts(586, 3393, 1746, 302, 50086, 25034, 39785, 40059),
        (0.07280288158252489, 0.41865286885633085, 0.4339915702113609,
         0.07455267934978348, 0.49145575043885575, 0.5085442495611444,
         0.5067944517938858, 0.49320554820611434, 0.6601957856313257,
         0.3398042143686743, 0.3869255019080803, 0.6130744980919197,
         -0.7053260328521652, -0.7052888781353833),
        (0.0029775142932513244, 0.006793167299150571, 0.007381018564458969,
         0.004105036956428772, 0.0071761480179196695, 0.0071761480179196695,
         0.007171234994691205, 0.007171234994691205, 0.006100987827791239,
         0.006100987827791239, 0.006273641635687476, 0.006273641635687476,
         0.009131118947348853, 0.009678794358621814),
    ),
    (
        BlockCounts(3880, 0, 0, 2022, 49762, 24970, 40000, 39927),
        (0.49008750630202147, 0.0, 0.0, 0.5099124936979784,
         0.49008750630202147, 0.5099124936979784, 0.49008750630202147,
         0.5099124936979784, 0.6574042697390715, 0.3425957302609285,
         0.6574042697390715, 0.3425957302609285, 1.0, 1.0),
        (0.007339122022313713, 0.0, 0.0, 0.007339122022313713,
         0.007339122022313713, 0.007339122022313713, 0.007339122022313713,
         0.007339122022313713, 0.006177427124129084, 0.006177427124129084,
         0.006177427124129084, 0.006177427124129084, 0.0, 0.0),
    ),
    (
        BlockCounts(0, 0, 1517, 1683, 30121, 39874, 40210, 38958),
        (0.0, 0.0, 0.46618300739095936, 0.5338169926090406,
         0.0, 1.0, 0.46618300739095936, 0.5338169926090406,
         0.0, 1.0, 0.4740625, 0.5259375, 0.051875, 0.06763398521808123),
        (0.0, 0.0, 0.00898613212310765, 0.00898613212310765,
         0.0, 0.0, 0.00898613212310765, 0.00898613212310765,
         0.0, 0.0, 0.008826934031944322, 0.008826934031944324,
         0.017653868063888644, 0.0179722642462153),
    ),
]


@pytest.mark.parametrize("counts, values, sigmas", PINNED)
def test_estimates_and_sigmas_pinned(counts, values, sigmas):
    est = estimate_block(counts)
    sig = counting_uncertainties(counts)
    got = (
        est.joint.as_tuple() + est.marginals.as_tuple()
        + evenodd_sums_standard(counts).as_tuple()
        + (est.correlation_standard, est.correlation_singles)
    )
    got_sigma = (
        sig.joint + sig.marginals + sig.marginals_standard
        + (sig.correlation_standard, sig.correlation_singles)
    )
    assert got == pytest.approx(values, rel=1e-12, abs=0.0)
    assert got_sigma == pytest.approx(sigmas, rel=1e-12, abs=0.0)
    assert est.sigma == sig


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
    n = np.array([counts.n_pp, counts.n_pm, counts.n_mp, counts.n_mm], dtype=float)
    s_a = np.array([counts.s_a_plus] * 2 + [counts.s_a_minus] * 2, dtype=float)
    s_b = np.array([counts.s_b_plus, counts.s_b_minus] * 2, dtype=float)
    f = n / (s_a * s_b)
    assert est.joint.as_tuple() == pytest.approx(tuple(f / f.sum()), abs=1e-15)
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
