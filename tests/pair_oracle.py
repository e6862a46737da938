"""Per-pair reference sampler: the detection model drawn literally, pair by pair.

Per emitted pair it draws, in this fixed order:

1. a shared polarization-like variable ``lam`` uniform on [0, pi),
2. the outcome pair from the quantum joint-probability table,
3. Alice's detection decision, 4. Bob's detection decision.

The package samples the same model from closed-form category
probabilities with ``lam`` integrated out; the equivalence tests compare
the two.  Its emission clock is the plain cumulative sum of one
exponential gap per emitted pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fairsample.detection import (
    BlockCounts,
    EfficiencyConfig,
    PolicyKind,
    SamplingPolicy,
)
from fairsample.quantum import OutcomeSign, SettingsPair, SourceState, Station, joint_prob_table


@dataclass(frozen=True)
class OracleDetections:
    """Every emitted pair of a block: signs (0 = Plus, 1 = Minus) and detections."""

    sign_a: np.ndarray
    sign_b: np.ndarray
    detected_a: np.ndarray
    detected_b: np.ndarray

    @property
    def n_pairs(self) -> int:
        return self.sign_a.shape[0]


@dataclass(frozen=True)
class HiddenVariable:
    """Shared per-pair polarization-like variable, uniform on [0, pi)."""

    lam: float


def sample_pair_outcome(
    state: SourceState, s: SettingsPair, rng: np.random.Generator
) -> tuple[OutcomeSign, OutcomeSign]:
    """Draw one outcome pair from the joint probability table."""
    table = joint_prob_table(state, s)
    u = rng.random()
    cell = int(np.searchsorted(np.cumsum(table.as_tuple()), u, side="right"))
    cell = min(cell, 3)
    return OutcomeSign((cell >> 1) & 1), OutcomeSign(cell & 1)


def channel_efficiency(eff: EfficiencyConfig, station: Station, e: OutcomeSign) -> float:
    """Base detection probability of channel (station, e)."""
    if station == Station.ALICE:
        return eff.eta_a_plus if e == OutcomeSign.PLUS else eff.eta_a_minus
    return eff.eta_b_plus if e == OutcomeSign.PLUS else eff.eta_b_minus


def detection_probability(
    policy: SamplingPolicy,
    eff: EfficiencyConfig,
    station: Station,
    e: OutcomeSign,
    setting: float,
    hv: HiddenVariable,
) -> float:
    """Probability that a photon in channel (station, e) is detected."""
    base = channel_efficiency(eff, station, e)
    if policy.kind == PolicyKind.FAIR or e == OutcomeSign.MINUS:
        return base
    c = math.cos(hv.lam - setting)
    return base * (1.0 - policy.d + policy.d * c * c)


def per_pair_detections(
    state: SourceState,
    eff: EfficiencyConfig,
    policy: SamplingPolicy,
    s: SettingsPair,
    n_pairs: int,
    seed,
) -> OracleDetections:
    """Every emitted pair, observed or not, with its four draws made as arrays."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    lam = rng.uniform(0.0, math.pi, n_pairs)
    u_outcome = rng.random(n_pairs)
    u_a = rng.random(n_pairs)
    u_b = rng.random(n_pairs)

    table = joint_prob_table(state, s)
    cells = np.searchsorted(np.cumsum(table.as_tuple()), u_outcome, side="right")
    cells = np.minimum(cells, 3).astype(np.uint8)
    sign_a = (cells >> 1) & 1
    sign_b = cells & 1

    def station_probs(signs: np.ndarray, setting: float, eta_plus: float,
                      eta_minus: float) -> np.ndarray:
        probs = np.where(signs == 0, eta_plus, eta_minus)
        if policy.kind == PolicyKind.UNFAIR_MALUS and policy.d > 0.0:
            c = np.cos(lam - setting)
            modulation = 1.0 - policy.d + policy.d * c * c
            probs = np.where(signs == 0, probs * modulation, probs)
        return probs

    detected_a = u_a < station_probs(sign_a, s.alpha, eff.eta_a_plus, eff.eta_a_minus)
    detected_b = u_b < station_probs(sign_b, s.beta, eff.eta_b_plus, eff.eta_b_minus)
    return OracleDetections(sign_a, sign_b, detected_a, detected_b)


def count_oracle(det: OracleDetections) -> BlockCounts:
    """Reduce per-pair detections to block counts."""
    both = det.detected_a & det.detected_b
    cells = np.bincount((det.sign_a[both] << 1) | det.sign_b[both], minlength=4)
    at_a = np.bincount(det.sign_a[det.detected_a], minlength=2)
    at_b = np.bincount(det.sign_b[det.detected_b], minlength=2)
    return BlockCounts(
        *(int(v) for v in cells),
        *(int(v) for v in at_a),
        *(int(v) for v in at_b),
        n_pairs_emitted=det.n_pairs,
    )


def emission_times(n_pairs: int, mean_gap_ticks: float, seed) -> np.ndarray:
    """Emission time of every pair: the cumulative sum of exponential gaps."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return np.cumsum(rng.exponential(mean_gap_ticks, n_pairs))


def photon_ticks(
    det: OracleDetections, mean_gap_ticks: float, jitter_sd_ticks: float, seed: tuple
) -> tuple[float, np.ndarray, np.ndarray]:
    """Each detected photon's tick: its pair's emission time plus its own jitter.

    The clock runs one pair further than ``det``: the arrival after its
    last pair is the horizon tau, which the package's sampler draws as one
    Gamma(n + 1) number.  Each photon's time gets an independent
    N(0, jitter_sd_ticks**2) draw and is rounded to a tick, clamped at zero.
    Returns tau and Alice's and Bob's ticks, in pair order.
    """
    clock = emission_times(det.n_pairs + 1, mean_gap_ticks, seed=(*seed, 0))
    rng = np.random.default_rng(np.random.SeedSequence((*seed, 1)))
    ticks = []
    for detected in (det.detected_a, det.detected_b):
        t = clock[:-1][detected]
        t += rng.normal(0.0, jitter_sd_ticks, t.shape[0])
        ticks.append(np.maximum(np.rint(t), 0.0))
    return float(clock[-1]), ticks[0], ticks[1]
