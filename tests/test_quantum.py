"""Analytic oracles and algebraic properties of the two-photon source model."""

import math

import pytest
from hypothesis import given
import hypothesis.strategies as st

from fairsample.quantum import (
    OutcomeSign,
    ProbTable,
    SettingsPair,
    SourceState,
    Station,
    chsh_value,
    correlation_qt,
    joint_prob_table,
)

SQRT2 = math.sqrt(2.0)

# Strategy building blocks: asymmetry parameter and analyzer angles.
p_values = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
angles = st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi, allow_nan=False)


def _flip(e: OutcomeSign) -> OutcomeSign:
    return OutcomeSign.MINUS if e is OutcomeSign.PLUS else OutcomeSign.PLUS


def _cell(state: SourceState, e1: OutcomeSign, e2: OutcomeSign, s: SettingsPair) -> float:
    """P(Alice e1, Bob e2): the table entry at category_probs' cell index."""
    return joint_prob_table(state, s).as_tuple()[(e1 << 1) | e2]


def _marginal(state: SourceState, station: Station, e: OutcomeSign, s: SettingsPair) -> float:
    """One station's outcome probability: a row (Alice) or column (Bob) sum."""
    if station == Station.ALICE:
        return sum(_cell(state, e, other, s) for other in OutcomeSign)
    return sum(_cell(state, other, e, s) for other in OutcomeSign)


# ---------------------------------------------------------------------------
# Frozen point values
# ---------------------------------------------------------------------------


def test_singlet_equal_angles_never_same_sign():
    s = SettingsPair(0.0, 0.0)
    state = SourceState(1.0)
    assert _cell(state, OutcomeSign.PLUS, OutcomeSign.PLUS, s) == pytest.approx(0.0, abs=1e-15)
    assert _cell(state, OutcomeSign.MINUS, OutcomeSign.MINUS, s) == pytest.approx(0.0, abs=1e-15)
    assert _cell(state, OutcomeSign.PLUS, OutcomeSign.MINUS, s) == pytest.approx(0.5, abs=1e-15)


def test_joint_prob_asymmetric_source_at_zero():
    # (p·cosα·cosβ + sinα·sinβ)²/(1+p²) at α=β=0 is p²/(1+p²) = 0.25/1.25.
    state = SourceState(0.5)
    got = _cell(state, OutcomeSign.MINUS, OutcomeSign.PLUS, SettingsPair(0.0, 0.0))
    assert got == pytest.approx(0.2, abs=1e-15)


@given(a=angles, b=angles)
def test_product_state_limit(a, b):
    # p=0 is the product state: same-sign outcome probability factorizes.
    got = _cell(SourceState(0.0), OutcomeSign.PLUS, OutcomeSign.PLUS, SettingsPair(a, b))
    assert got == pytest.approx(math.cos(a) ** 2 * math.sin(b) ** 2, abs=1e-12)


def test_joint_table_singlet_zero():
    t = joint_prob_table(SourceState(1.0), SettingsPair(0.0, 0.0))
    assert t.as_tuple() == pytest.approx((0.0, 0.5, 0.5, 0.0), abs=1e-15)


def test_joint_table_singlet_flat_at_45():
    t = joint_prob_table(SourceState(1.0), SettingsPair(math.pi / 4, 0.0))
    assert t.as_tuple() == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-15)


def test_joint_table_asymmetric_at_zero():
    t = joint_prob_table(SourceState(0.5), SettingsPair(0.0, 0.0))
    assert t.as_tuple() == pytest.approx((0.0, 0.8, 0.2, 0.0), abs=1e-15)


def test_singlet_marginals_are_half():
    state = SourceState(1.0)
    for a, b in [(0.0, 0.0), (0.3, 1.1), (math.pi / 5, -0.7)]:
        s = SettingsPair(a, b)
        for station in Station:
            for e in OutcomeSign:
                assert _marginal(state, station, e, s) == pytest.approx(0.5, abs=1e-12)


def test_alice_plus_marginal_asymmetric():
    # (cos²α + p²·sin²α)/(1+p²) at p=0.5, α=0 is 1/1.25.
    got = _marginal(SourceState(0.5), Station.ALICE, OutcomeSign.PLUS, SettingsPair(0.0, 0.9))
    assert got == pytest.approx(0.8, abs=1e-15)


def test_bob_marginals_at_quarter_turn():
    # B⁻(β) = (cos²β + p²·sin²β)/(1+p²): at β=π/2 this is p²/(1+p²).
    state = SourceState(0.7)
    s = SettingsPair(0.3, math.pi / 2)
    assert _marginal(state, Station.BOB, OutcomeSign.MINUS, s) == pytest.approx(0.49 / 1.49, abs=1e-12)
    assert _marginal(state, Station.BOB, OutcomeSign.PLUS, s) == pytest.approx(1.0 / 1.49, abs=1e-12)


def test_correlation_singlet_points():
    state = SourceState(1.0)
    assert correlation_qt(state, SettingsPair(0.4, 0.4)) == pytest.approx(-1.0, abs=1e-12)
    assert correlation_qt(state, SettingsPair(math.pi / 4 + 0.2, 0.2)) == pytest.approx(0.0, abs=1e-12)


def test_correlation_asymmetric_at_zero():
    assert correlation_qt(SourceState(0.5), SettingsPair(0.0, 0.0)) == pytest.approx(-1.0, abs=1e-15)


@given(p=p_values, a=angles, b=angles)
def test_correlation_closed_form(p, a, b):
    # E(α,β) = −cos2α·cos2β − (2p/(1+p²))·sin2α·sin2β.
    state = SourceState(p)
    expected = -math.cos(2 * a) * math.cos(2 * b) - (2 * p / (1 + p * p)) * math.sin(
        2 * a
    ) * math.sin(2 * b)
    assert correlation_qt(state, SettingsPair(a, b)) == pytest.approx(expected, abs=1e-12)


def test_chsh_all_zero_settings():
    assert chsh_value(SourceState(1.0), 0.0, 0.0, 0.0, 0.0) == pytest.approx(-2.0, abs=1e-14)


def test_chsh_peaks_at_tsirelson_settings():
    s = chsh_value(SourceState(1.0), 0.0, math.pi / 4, math.pi / 8, -math.pi / 8)
    assert s == pytest.approx(-2.0 * SQRT2, abs=1e-12)


def test_chsh_asymmetric_source_at_tsirelson_settings():
    # |S| = (1 + 2p/(1+p²))·√2 at these settings: 1.8√2 for p=0.5.
    s = chsh_value(SourceState(0.5), 0.0, math.pi / 4, math.pi / 8, -math.pi / 8)
    assert s == pytest.approx(-1.8 * SQRT2, abs=1e-12)
    assert s == pytest.approx(-2.545584412271571, abs=1e-12)


# ---------------------------------------------------------------------------
# Algebraic properties
# ---------------------------------------------------------------------------


@given(p=p_values, a=angles, b=angles)
def test_table_normalization(p, a, b):
    t = joint_prob_table(SourceState(p), SettingsPair(a, b))
    assert math.fsum(t.as_tuple()) == pytest.approx(1.0, abs=1e-12)
    assert all(c >= 0.0 for c in t.as_tuple())


@given(p=p_values, a=angles, b=angles)
def test_pi_periodicity(p, a, b):
    state = SourceState(p)
    t0 = joint_prob_table(state, SettingsPair(a, b))
    t1 = joint_prob_table(state, SettingsPair(a + math.pi, b + math.pi))
    for c0, c1 in zip(t0.as_tuple(), t1.as_tuple()):
        assert c0 == pytest.approx(c1, abs=1e-12)


@given(p=p_values, a=angles, b1=angles, b2=angles)
def test_alice_marginal_ignores_bob_setting(p, a, b1, b2):
    state = SourceState(p)
    m1 = _marginal(state, Station.ALICE, OutcomeSign.PLUS, SettingsPair(a, b1))
    m2 = _marginal(state, Station.ALICE, OutcomeSign.PLUS, SettingsPair(a, b2))
    assert m1 == pytest.approx(m2, abs=1e-12)


@given(p=p_values, b=angles, a1=angles, a2=angles)
def test_bob_marginal_ignores_alice_setting(p, b, a1, a2):
    state = SourceState(p)
    m1 = _marginal(state, Station.BOB, OutcomeSign.MINUS, SettingsPair(a1, b))
    m2 = _marginal(state, Station.BOB, OutcomeSign.MINUS, SettingsPair(a2, b))
    assert m1 == pytest.approx(m2, abs=1e-12)


@given(a=angles, b=angles)
def test_singlet_reduction(a, b):
    # At p=1 the table depends on α−β only: sin²/cos² halves.
    t = joint_prob_table(SourceState(1.0), SettingsPair(a, b))
    s2 = math.sin(a - b) ** 2 / 2.0
    c2 = math.cos(a - b) ** 2 / 2.0
    assert t.p_pp == pytest.approx(s2, abs=1e-12)
    assert t.p_mm == pytest.approx(s2, abs=1e-12)
    assert t.p_pm == pytest.approx(c2, abs=1e-12)
    assert t.p_mp == pytest.approx(c2, abs=1e-12)


@given(p=p_values, a=angles, b=angles, e1=st.sampled_from(OutcomeSign), e2=st.sampled_from(OutcomeSign))
def test_station_exchange_with_sign_flip(p, a, b, e1, e2):
    # Swapping stations maps each outcome to the opposite sign of the other
    # photon: P(ε1,ε2; α,β) = P(ε̄2,ε̄1; β,α) for every p.
    state = SourceState(p)
    lhs = _cell(state, e1, e2, SettingsPair(a, b))
    rhs = _cell(state, _flip(e2), _flip(e1), SettingsPair(b, a))
    assert lhs == pytest.approx(rhs, abs=1e-12)


@given(a=angles, b=angles, e1=st.sampled_from(OutcomeSign), e2=st.sampled_from(OutcomeSign))
def test_plain_station_exchange_holds_for_singlet(a, b, e1, e2):
    state = SourceState(1.0)
    lhs = _cell(state, e1, e2, SettingsPair(a, b))
    rhs = _cell(state, e2, e1, SettingsPair(b, a))
    assert lhs == pytest.approx(rhs, abs=1e-12)


@given(p=p_values, a=angles, b=angles)
def test_correlation_matches_table(p, a, b):
    state = SourceState(p)
    s = SettingsPair(a, b)
    t = joint_prob_table(state, s)
    assert correlation_qt(state, s) == pytest.approx(t.correlation(), abs=1e-12)
    assert -1.0 - 1e-12 <= correlation_qt(state, s) <= 1.0 + 1e-12


@given(p=p_values, a=angles, b=angles)
def test_marginal_matches_table_sums(p, a, b):
    state = SourceState(p)
    s = SettingsPair(a, b)
    t = joint_prob_table(state, s)
    # A⁺(α) = (cos²α + p²·sin²α)/(1+p²) and B⁻(β) = (cos²β + p²·sin²β)/(1+p²).
    norm = 1.0 + p * p
    alice_plus = (math.cos(a) ** 2 + p * p * math.sin(a) ** 2) / norm
    bob_minus = (math.cos(b) ** 2 + p * p * math.sin(b) ** 2) / norm
    assert t.p_pp + t.p_pm == pytest.approx(alice_plus, abs=1e-12)
    assert t.p_pm + t.p_mm == pytest.approx(bob_minus, abs=1e-12)
    assert _marginal(state, Station.ALICE, OutcomeSign.PLUS, s) == pytest.approx(
        alice_plus, abs=1e-12
    )
    assert _marginal(state, Station.BOB, OutcomeSign.MINUS, s) == pytest.approx(
        bob_minus, abs=1e-12
    )


@given(p=p_values, a1=angles, a2=angles, b1=angles, b2=angles)
def test_chsh_within_tsirelson_bound(p, a1, a2, b1, b2):
    assert abs(chsh_value(SourceState(p), a1, a2, b1, b2)) <= 2.0 * SQRT2 + 1e-9


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad_p", [-0.1, 1.0001, math.nan, math.inf])
def test_source_state_rejects_bad_p(bad_p):
    with pytest.raises(ValueError):
        SourceState(bad_p)


def test_prob_table_rejects_unnormalized():
    with pytest.raises(ValueError):
        ProbTable(0.5, 0.5, 0.5, 0.5)


def test_prob_table_rejects_negative_cell():
    with pytest.raises(ValueError):
        ProbTable(-0.1, 0.6, 0.3, 0.2)
