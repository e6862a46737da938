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
    EfficiencyConfig,
    PairDetections,
    PolicyKind,
    SamplingPolicy,
)
from fairsample.quantum import OutcomeSign, SettingsPair, SourceState, Station, joint_prob_table


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


def detection_probability(
    policy: SamplingPolicy,
    eff: EfficiencyConfig,
    station: Station,
    e: OutcomeSign,
    setting: float,
    hv: HiddenVariable,
) -> float:
    """Probability that a photon in channel (station, e) is detected."""
    base = eff.eta(station, e)
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
) -> PairDetections:
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
    return PairDetections(
        index=np.arange(n_pairs, dtype=np.int64),
        sign_a=sign_a,
        sign_b=sign_b,
        detected_a=detected_a,
        detected_b=detected_b,
        n_pairs=n_pairs,
    )


def emission_times(n_pairs: int, mean_gap_ticks: float, seed) -> np.ndarray:
    """Emission time of every pair: the cumulative sum of exponential gaps."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return np.cumsum(rng.exponential(mean_gap_ticks, n_pairs))
