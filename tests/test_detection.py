"""Detection policies, the closed-form category model, and block-level counting."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fairsample.coincidence import CoincidenceWindow, count_coincidences
from fairsample.detection import (
    BlockCounts,
    EfficiencyConfig,
    PolicyKind,
    SamplingPolicy,
    category_probs,
    simulate_block,
)
from fairsample.quantum import (
    OutcomeSign,
    SettingsPair,
    SourceState,
    Station,
    joint_prob_table,
)
from fairsample.timetags import generate_streams
from pair_oracle import channel_efficiency, sample_pair_outcome

FAIR = SamplingPolicy(PolicyKind.FAIR)
ETA_MIXED = EfficiencyConfig(0.10, 0.05, 0.08, 0.08)
# Four distinct efficiencies, so a swap of either station's channels shows.
ETA_DISTINCT = EfficiencyConfig(0.10, 0.05, 0.08, 0.06)
DISTINCT_BY_CHANNEL = {
    (Station.ALICE, OutcomeSign.PLUS): 0.10,
    (Station.ALICE, OutcomeSign.MINUS): 0.05,
    (Station.BOB, OutcomeSign.PLUS): 0.08,
    (Station.BOB, OutcomeSign.MINUS): 0.06,
}
ETA_FLAT = EfficiencyConfig(0.35, 0.35, 0.35, 0.35)
ETA_UNIT = EfficiencyConfig(1.0, 1.0, 1.0, 1.0)
SINGLET = SourceState(1.0)

angles = st.floats(-math.pi, math.pi, allow_nan=False)


def detect_prob(policy, eff, station, e, s, state=SINGLET):
    """P(station detects its photon | its outcome is e), from category_probs."""
    probs = category_probs(state, eff, policy, s)
    if station == Station.ALICE:
        cells = [c for c in range(4) if (c >> 1) == e]
        detected = probs[cells, 1, :].sum()
    else:
        cells = [c for c in range(4) if (c & 1) == e]
        detected = probs[cells, :, 1].sum()
    return detected / probs[cells].sum()


# ---------------------------------------------------------------------------
# category_probs
# ---------------------------------------------------------------------------


@given(setting=angles, other=angles)
def test_fair_probability_is_base_efficiency(setting, other):
    s = SettingsPair(setting, other)
    got = detect_prob(FAIR, ETA_MIXED, Station.ALICE, OutcomeSign.PLUS, s)
    assert got == pytest.approx(0.10, rel=1e-12)
    got = detect_prob(FAIR, ETA_MIXED, Station.BOB, OutcomeSign.MINUS, s)
    assert got == pytest.approx(0.08, rel=1e-12)
    for (station, e), eta in DISTINCT_BY_CHANNEL.items():
        got = detect_prob(FAIR, ETA_DISTINCT, station, e, s)
        assert got == pytest.approx(eta, rel=1e-12)


def test_unfair_plus_channel_aligned_hidden_variable():
    # At d=1 both Plus channels follow cos^2(lam - setting); with aligned
    # analyzers a (+,+) pair is seen by both with probability
    # eta_a+ * eta_b+ * E[cos^4] = 3/8 of the fair value.
    pol = SamplingPolicy(PolicyKind.UNFAIR_MALUS, d=1.0)
    state, s = SourceState(0.5), SettingsPair(0.3, 0.3)
    probs = category_probs(state, ETA_MIXED, pol, s)
    p_pp = joint_prob_table(state, s).p_pp
    assert probs[0, 1, 1] / p_pp == pytest.approx(0.10 * 0.08 * 3 / 8, rel=1e-12)


def test_unfair_plus_channel_orthogonal_hidden_variable():
    # Crossed analyzers: E[cos^2 * sin^2] = 1/8 of the fair value.
    pol = SamplingPolicy(PolicyKind.UNFAIR_MALUS, d=1.0)
    state, s = SourceState(0.5), SettingsPair(0.3, 0.3 + math.pi / 2)
    probs = category_probs(state, ETA_MIXED, pol, s)
    p_pp = joint_prob_table(state, s).p_pp
    assert probs[0, 1, 1] / p_pp == pytest.approx(0.10 * 0.08 / 8, rel=1e-12)


def test_unfair_minus_channel_keeps_base_efficiency():
    # The bias is deliberately one-sided: only Plus channels are modulated, so
    # the Minus channel stays at its base efficiency for every hidden variable.
    pol = SamplingPolicy(PolicyKind.UNFAIR_MALUS, d=0.5)
    eff = EfficiencyConfig(0.3, 0.3, 0.2, 0.2)
    s = SettingsPair(math.pi / 4, math.pi / 4)
    got = detect_prob(pol, eff, Station.BOB, OutcomeSign.MINUS, s)
    assert got == pytest.approx(0.2, rel=1e-12)


@given(
    d=st.floats(0.0, 1.0, allow_nan=False),
    setting=angles,
    other=angles,
    e=st.sampled_from(OutcomeSign),
    station=st.sampled_from(Station),
)
def test_unfair_probability_bounded_by_base(d, setting, other, e, station):
    pol = SamplingPolicy(PolicyKind.UNFAIR_MALUS, d=d)
    for eff in (ETA_MIXED, ETA_DISTINCT):
        base = channel_efficiency(eff, station, e)
        got = detect_prob(pol, eff, station, e, SettingsPair(setting, other))
        assert 0.0 <= got <= base * (1 + 1e-12)
        if e == OutcomeSign.PLUS:
            assert got == pytest.approx(base * (1 - d / 2), rel=1e-12)


@given(p=st.floats(0.0, 1.0, allow_nan=False), setting=angles, other=angles)
def test_zero_depth_unfair_equals_fair(p, setting, other):
    pol = SamplingPolicy(PolicyKind.UNFAIR_MALUS, d=0.0)
    s = SettingsPair(setting, other)
    state = SourceState(p)
    assert np.array_equal(
        category_probs(state, ETA_MIXED, pol, s), category_probs(state, ETA_MIXED, FAIR, s)
    )


@given(
    p=st.floats(0.0, 1.0, allow_nan=False),
    d=st.floats(0.0, 1.0, allow_nan=False),
    setting=angles,
    other=angles,
    eta=st.tuples(*[st.floats(1e-3, 1.0)] * 4),
)
def test_category_probs_form_a_distribution(p, d, setting, other, eta):
    state, s = SourceState(p), SettingsPair(setting, other)
    pol = SamplingPolicy(PolicyKind.UNFAIR_MALUS, d=d)
    probs = category_probs(state, EfficiencyConfig(*eta), pol, s)
    assert probs.shape == (4, 2, 2)
    assert np.all(probs >= 0.0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    # Summing out the detection axes recovers the quantum table.
    table = joint_prob_table(state, s).as_tuple()
    assert probs.sum(axis=(1, 2)) == pytest.approx(table, abs=1e-12)


# ---------------------------------------------------------------------------
# sample_pair_outcome
# ---------------------------------------------------------------------------


def test_sample_never_hits_zero_probability_cells():
    rng = np.random.default_rng(7)
    state = SourceState(1.0)
    s = SettingsPair(0.4, 0.4)
    for _ in range(2000):
        e1, e2 = sample_pair_outcome(state, s, rng)
        assert e1 != e2


def test_sample_product_state_is_deterministic():
    rng = np.random.default_rng(8)
    state = SourceState(0.0)
    s = SettingsPair(0.0, math.pi / 2)
    for _ in range(500):
        assert sample_pair_outcome(state, s, rng) == (OutcomeSign.PLUS, OutcomeSign.PLUS)


def test_sample_frequencies_match_table():
    rng = np.random.default_rng(9)
    state = SourceState(1.0)
    s = SettingsPair(math.pi / 4, 0.0)
    n = 20_000
    counts = {(e1, e2): 0 for e1 in OutcomeSign for e2 in OutcomeSign}
    for _ in range(n):
        counts[sample_pair_outcome(state, s, rng)] += 1
    sigma = math.sqrt(0.25 * 0.75 / n)
    for c in counts.values():
        assert c / n == pytest.approx(0.25, abs=5 * sigma)


# ---------------------------------------------------------------------------
# Event mode: simulate_block, then generate_streams
# ---------------------------------------------------------------------------


def _event_mode(state, eff, policy, s, n_pairs, seed, jitter=0.0):
    """Block counts of one point and the two streams built from them."""
    counts = simulate_block(state, eff, policy, s, n_pairs, seed)
    a, b = generate_streams(counts, 1e3, 1, jitter, seed=(seed, 1))
    return counts, a, b


def test_count_detections_by_hand():
    # Six emitted pairs, four of them observed: (Alice, Bob) signs
    # (+, -) and (-, -) seen at both stations, (+, +) at Alice only and
    # (-, +) at Bob only.
    counts = BlockCounts(
        n_pp=0, n_pm=1, n_mp=0, n_mm=1, s_a_plus=2, s_a_minus=1, s_b_plus=1, s_b_minus=2,
        n_pairs_emitted=6,
    )
    a, b = generate_streams(counts, 1e3, 1, 0.0, seed=5)
    assert sorted(a.sign) == [0, 0, 1] and sorted(b.sign) == [0, 1, 1]
    shared = np.intersect1d(a.t, b.t)
    assert shared.shape == (2,)
    assert sorted(b.sign[np.isin(b.t, shared)]) == [1, 1]
    matched = count_coincidences(a, b, CoincidenceWindow(0))
    assert matched == dataclasses.replace(counts, n_pairs_emitted=0)


def test_detections_shape_and_n_pairs():
    counts, a, b = _event_mode(
        SourceState(0.5), ETA_MIXED, FAIR, SettingsPair(0.1, 0.2), n_pairs=1000, seed=11
    )
    assert counts.n_pairs_emitted == 1000
    seen_a = counts.s_a_plus + counts.s_a_minus
    seen_b = counts.s_b_plus + counts.s_b_minus
    observed = seen_a + seen_b - counts.total_coincidences
    assert 0 < observed < 1000
    assert (len(a), len(b)) == (seen_a, seen_b)
    for stream in (a, b):
        assert stream.t.dtype == np.uint64
        assert np.all(np.diff(stream.t.astype(np.int64)) >= 0)
    # Every pair is emitted within the block's 1 s, up to a few gaps.
    assert max(a.t[-1], b.t[-1]) < 1.2e12


def test_detections_zero_pairs():
    counts, a, b = _event_mode(SINGLET, ETA_MIXED, FAIR, SettingsPair(0.0, 0.0), 0, seed=1)
    assert counts.n_pairs_emitted == 0 and counts.total_singles == 0
    assert len(a) == len(b) == 0


def test_detections_unit_efficiency_observe_every_pair():
    # At these angles the rounded category probabilities sum above 1.
    s = SettingsPair(0.34899993172338295, 3.480579390302146)
    state = SourceState(0.8158535541215322)
    assert category_probs(state, ETA_UNIT, FAIR, s).sum() > 1.0
    counts, a, b = _event_mode(state, ETA_UNIT, FAIR, s, 5000, seed=12)
    assert counts.total_coincidences == 5000
    assert len(a) == len(b) == 5000
    assert np.array_equal(a.t, b.t)


@settings(max_examples=200)
@given(
    p=st.floats(0.0, 1.0, allow_nan=False),
    d=st.floats(0.0, 1.0, allow_nan=False),
    a=angles,
    b=angles,
    eff=st.sampled_from([ETA_UNIT, EfficiencyConfig(1.0, 1.0, 0.3, 0.7)]),
    unfair=st.booleans(),
)
def test_detections_unit_efficiency_any_angles(p, d, a, b, eff, unfair):
    # The category probabilities can sum to a few ulps above 1 here.
    policy = SamplingPolicy(PolicyKind.UNFAIR_MALUS, d) if unfair else FAIR
    counts, stream_a, stream_b = _event_mode(
        SourceState(p), eff, policy, SettingsPair(a, b), 200, seed=3
    )
    assert len(stream_a) == counts.s_a_plus + counts.s_a_minus
    assert len(stream_b) == counts.s_b_plus + counts.s_b_minus
    if eff == ETA_UNIT and not unfair:
        assert counts.total_coincidences == 200
    elif not unfair:
        # Alice's channels both have unit efficiency: she sees every pair.
        assert len(stream_a) == 200
    else:
        observed = len(stream_a) + len(stream_b) - counts.total_coincidences
        assert observed <= 200


def test_detections_zero_depth_unfair_identical_to_fair():
    pol0 = SamplingPolicy(PolicyKind.UNFAIR_MALUS, d=0.0)
    s = SettingsPair(0.3, 0.9)
    counts0, a0, b0 = _event_mode(SINGLET, ETA_MIXED, pol0, s, 30_000, seed=17, jitter=30.0)
    counts, a, b = _event_mode(SINGLET, ETA_MIXED, FAIR, s, 30_000, seed=17, jitter=30.0)
    assert counts0 == counts
    for x, y in ((a0, a), (b0, b)):
        for field in ("t", "sign", "setting_index"):
            assert np.array_equal(getattr(x, field), getattr(y, field)), field


def test_detections_reject_negative_pairs():
    with pytest.raises(ValueError):
        simulate_block(SINGLET, ETA_MIXED, FAIR, SettingsPair(0.0, 0.0), -1, seed=1)
    negative = BlockCounts(0, 0, 0, 0, 0, 0, 0, 0, n_pairs_emitted=-1)
    with pytest.raises(ValueError):
        generate_streams(negative, 1e3, 1, 0.0, seed=1)


# ---------------------------------------------------------------------------
# simulate_block
# ---------------------------------------------------------------------------


def test_block_zero_pairs_all_zero():
    counts = simulate_block(SourceState(1.0), ETA_MIXED, FAIR, SettingsPair(0.0, 0.0), 0, seed=1)
    assert counts.total_coincidences == 0
    assert counts.total_singles == 0
    assert counts.n_pairs_emitted == 0


def test_block_unit_efficiency_singlet():
    counts = simulate_block(SourceState(1.0), ETA_UNIT, FAIR, SettingsPair(0.0, 0.0), 100_000, seed=2)
    assert counts.n_pp == 0 and counts.n_mm == 0
    assert counts.n_pm + counts.n_mp == 100_000
    assert counts.s_a_plus == counts.n_pp + counts.n_pm
    assert counts.s_a_minus == counts.n_mp + counts.n_mm
    assert counts.s_b_plus == counts.n_pp + counts.n_mp
    assert counts.s_b_minus == counts.n_pm + counts.n_mm


def test_block_coincidence_rate_factorizes():
    # With fair sampling the pair-detection probability is the product of the
    # two channel efficiencies, so n_pp/n ≈ η_A⁺·η_B⁺·P⁺⁺.
    n = 1_000_000
    s = SettingsPair(math.pi / 8, 0.0)
    table = joint_prob_table(SourceState(1.0), s)
    counts = simulate_block(SourceState(1.0), ETA_MIXED, FAIR, s, n, seed=4)
    expect = {
        "n_pp": 0.10 * 0.08 * table.p_pp,
        "n_pm": 0.10 * 0.08 * table.p_pm,
        "n_mp": 0.05 * 0.08 * table.p_mp,
        "n_mm": 0.05 * 0.08 * table.p_mm,
    }
    for name, q in expect.items():
        got = getattr(counts, name) / n
        sigma = math.sqrt(q * (1 - q) / n)
        assert got == pytest.approx(q, abs=3 * sigma), name


def test_block_singles_rates():
    n = 400_000
    counts = simulate_block(SourceState(1.0), ETA_MIXED, FAIR, SettingsPair(0.25, 0.0), n, seed=5)
    for name, eta in [("s_a_plus", 0.10), ("s_a_minus", 0.05), ("s_b_plus", 0.08), ("s_b_minus", 0.08)]:
        q = 0.5 * eta
        sigma = math.sqrt(n * q * (1 - q))
        assert getattr(counts, name) == pytest.approx(n * q, abs=4 * sigma), name


def test_block_unfair_depletes_plus_singles_only():
    # Averaged over the uniform hidden variable, the Plus-channel efficiency
    # shrinks by (1 − d/2) while the Minus channel is untouched.
    n = 400_000
    d = 0.5
    pol = SamplingPolicy(PolicyKind.UNFAIR_MALUS, d=d)
    counts = simulate_block(SourceState(1.0), ETA_FLAT, pol, SettingsPair(0.6, 0.0), n, seed=6)
    q_plus = 0.5 * 0.35 * (1 - d / 2)
    q_minus = 0.5 * 0.35
    for name, q in [
        ("s_a_plus", q_plus),
        ("s_b_plus", q_plus),
        ("s_a_minus", q_minus),
        ("s_b_minus", q_minus),
    ]:
        sigma = math.sqrt(n * q * (1 - q))
        assert getattr(counts, name) == pytest.approx(n * q, abs=5 * sigma), name


def test_block_determinism():
    args = (SourceState(0.7), ETA_MIXED, FAIR, SettingsPair(0.8, 0.1), 50_000)
    assert simulate_block(*args, seed=42) == simulate_block(*args, seed=42)
    assert simulate_block(*args, seed=42) != simulate_block(*args, seed=43)


def test_block_zero_depth_unfair_identical_to_fair():
    pol0 = SamplingPolicy(PolicyKind.UNFAIR_MALUS, d=0.0)
    args = (SourceState(1.0), ETA_MIXED)
    s = SettingsPair(0.3, 0.9)
    assert simulate_block(*args, pol0, s, 30_000, seed=17) == simulate_block(
        *args, FAIR, s, 30_000, seed=17
    )


@settings(max_examples=25)
@given(
    p=st.floats(0.0, 1.0, allow_nan=False),
    a=st.floats(0.0, math.pi, allow_nan=False),
    b=st.floats(0.0, math.pi, allow_nan=False),
    seed=st.integers(0, 2**31),
)
def test_block_counts_internally_consistent(p, a, b, seed):
    counts = simulate_block(SourceState(p), ETA_MIXED, FAIR, SettingsPair(a, b), 2000, seed=seed)
    assert counts.n_pp + counts.n_pm <= counts.s_a_plus
    assert counts.n_mp + counts.n_mm <= counts.s_a_minus
    assert counts.n_pp + counts.n_mp <= counts.s_b_plus
    assert counts.n_pm + counts.n_mm <= counts.s_b_minus
    assert counts.total_singles <= 4 * 2000

    x = counts.as_array()
    rebuilt = BlockCounts.from_arrays(x[:4], x[4:], counts.n_pairs_emitted)
    assert rebuilt == counts
    for c in (counts, rebuilt):
        assert all(type(v) is int for v in dataclasses.astuple(c))
        json.dumps(dataclasses.asdict(c))

    # Rows are Alice's sign, columns Bob's: a channel's coincidences are
    # its row or column sum.
    table = np.array([[counts.n_pp, counts.n_pm], [counts.n_mp, counts.n_mm]])
    singles = np.array([counts.s_a_plus, counts.s_a_minus, counts.s_b_plus, counts.s_b_minus])
    np.testing.assert_array_equal(
        counts.unmatched(), singles - np.concatenate([table.sum(axis=1), table.sum(axis=0)])
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("eta", [0.0, -0.2, 1.5, math.nan])
def test_efficiency_config_rejects_out_of_range(eta):
    with pytest.raises(ValueError):
        EfficiencyConfig(eta, 0.5, 0.5, 0.5)


def test_efficiency_lookup():
    assert channel_efficiency(ETA_MIXED, Station.ALICE, OutcomeSign.PLUS) == 0.10
    assert channel_efficiency(ETA_MIXED, Station.ALICE, OutcomeSign.MINUS) == 0.05
    assert channel_efficiency(ETA_MIXED, Station.BOB, OutcomeSign.PLUS) == 0.08
    assert channel_efficiency(ETA_MIXED, Station.BOB, OutcomeSign.MINUS) == 0.08
    for (station, e), eta in DISTINCT_BY_CHANNEL.items():
        assert channel_efficiency(ETA_DISTINCT, station, e) == eta


@pytest.mark.parametrize("d", [-0.1, 1.1, math.nan])
def test_sampling_policy_rejects_bad_depth(d):
    with pytest.raises(ValueError):
        SamplingPolicy(PolicyKind.UNFAIR_MALUS, d=d)


def test_block_counts_reject_negative():
    with pytest.raises(ValueError):
        BlockCounts(-1, 0, 0, 0, 0, 0, 0, 0)


@pytest.mark.parametrize(
    "channel, counts",
    [
        ("s_a_plus", (5, 0, 0, 0, 4, 10, 10, 10)),
        ("s_a_minus", (0, 0, 5, 0, 10, 4, 10, 10)),
        ("s_b_plus", (0, 0, 5, 0, 10, 10, 4, 10)),
        ("s_b_minus", (0, 5, 0, 0, 10, 10, 10, 4)),
    ],
)
def test_block_counts_reject_coincidences_exceeding_singles(channel, counts):
    with pytest.raises(ValueError, match=rf"coincidences \(5\) exceed {channel} \(4\)"):
        BlockCounts(*counts)
