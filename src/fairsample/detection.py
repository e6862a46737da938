"""Detection model: pair outcomes, channel efficiencies, sampling policies.

Every emitted pair falls into one of 16 categories: its outcome cell
(Alice sign, Bob sign), drawn from the quantum joint-probability table,
and whether each station detects its photon.  Detection decisions are
local: each depends only on the local setting, the local outcome sign,
the local base efficiencies and a shared polarization-like variable
``lam``, uniform on [0, pi).  Under the FAIR policy the detection
probability is exactly the base channel efficiency, so the detected pairs
are an unbiased sample.  The UNFAIR_MALUS policy modulates *only the Plus
channel* of each station:

    P(detect | Plus)  = eta_plus * (1 - d + d * cos^2(lam - setting))
    P(detect | Minus) = eta_minus

Modulating one channel per station makes the detected sample depend on
the local setting in a way that neither coincidence-sum normalization
nor singles-based normalization can cancel.  (Modulating both channels
in quadrature, by contrast, cancels identically in every normalized
quantity for the maximally entangled source, leaving no observable
signature — see tests/test_detection.py for the frozen consequences.)
The averaged singles rates are unaffected (the lam-average of the
modulation is the constant 1 - d/2), mimicking setups where singles look
steady while the coincidence sample is biased.

``lam`` enters only the detection decisions, so :func:`category_probs`
integrates it out in closed form, using

    E[cos^2(lam - a)]                    = 1/2
    E[cos^2(lam - a) * cos^2(lam - b)]   = 1/4 + cos(2(a - b))/8,

and weights each cell of :func:`fairsample.quantum.joint_prob_table` by
its detection probabilities.  It is the single source of the detection
model's probabilities.  There is one
sampler, :func:`simulate_block`: one multinomial draw of the block's
pairs over the 16 categories.  Event streams are built from its counts
by :func:`fairsample.timetags.generate_streams`, which gives the observed
pairs their emission times; the categories of a Poisson stream of pairs
are independent of the times, so nothing else needs to be drawn per pair.
A block's counts hold no angles: the caller keeps the settings pair with
the point (``ScanPoint``, the run manifest).

With d=0 the category probabilities are bit-identical to FAIR's, so the
two policies consume the RNG identically.  The per-pair sampler that
draws ``lam`` explicitly lives in the tests as the reference; it keeps
its own channel-efficiency lookup, so it shares only the joint table
with this module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .quantum import OutcomeSign, SettingsPair, SourceState, joint_prob_table

# Recorded in run manifests; bump the version whenever a seed's draws change.
SAMPLER_NAME = "closed-form-categories"
SAMPLER_VERSION = 3


class PolicyKind(enum.Enum):
    FAIR = "fair"
    UNFAIR_MALUS = "unfair_malus"


@dataclass(frozen=True)
class EfficiencyConfig:
    """Base detection probabilities of the four channels, each in (0, 1]."""

    eta_a_plus: float
    eta_a_minus: float
    eta_b_plus: float
    eta_b_minus: float

    def __post_init__(self) -> None:
        for name, value in (
            ("eta_a_plus", self.eta_a_plus),
            ("eta_a_minus", self.eta_a_minus),
            ("eta_b_plus", self.eta_b_plus),
            ("eta_b_minus", self.eta_b_minus),
        ):
            if not (0.0 < value <= 1.0):
                raise ValueError(f"{name} must be in (0, 1], got {value!r}")


@dataclass(frozen=True)
class SamplingPolicy:
    """Fairness of the detection sample.  ``d`` is used only by UNFAIR_MALUS."""

    kind: PolicyKind = PolicyKind.FAIR
    d: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.d <= 1.0):
            raise ValueError(f"d must be in [0, 1], got {self.d!r}")


@dataclass(frozen=True)
class BlockCounts:
    """Counts accumulated at one settings pair (one scan point).

    Coincidences are indexed (Alice sign, Bob sign); singles count every
    detection on a channel whether or not the partner was detected, so
    n_pp + n_pm <= s_a_plus and the three analogous inequalities hold.
    """

    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int
    s_a_plus: int
    s_a_minus: int
    s_b_plus: int
    s_b_minus: int
    n_pairs_emitted: int = 0

    def __post_init__(self) -> None:
        counts = (
            self.n_pp, self.n_pm, self.n_mp, self.n_mm,
            self.s_a_plus, self.s_a_minus, self.s_b_plus, self.s_b_minus,
        )
        if any(c < 0 for c in counts):
            raise ValueError(f"counts must be non-negative, got {counts}")
        pairs_vs_singles = (
            (self.n_pp + self.n_pm, self.s_a_plus, "s_a_plus"),
            (self.n_mp + self.n_mm, self.s_a_minus, "s_a_minus"),
            (self.n_pp + self.n_mp, self.s_b_plus, "s_b_plus"),
            (self.n_pm + self.n_mm, self.s_b_minus, "s_b_minus"),
        )
        for coinc, singles, name in pairs_vs_singles:
            if coinc > singles:
                raise ValueError(
                    f"coincidences ({coinc}) exceed {name} ({singles}): "
                    "a coincidence implies both singles were registered"
                )

    @property
    def total_coincidences(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm

    @property
    def total_singles(self) -> int:
        return self.s_a_plus + self.s_a_minus + self.s_b_plus + self.s_b_minus


def category_probs(
    state: SourceState, eff: EfficiencyConfig, policy: SamplingPolicy, s: SettingsPair
) -> np.ndarray:
    """P(outcome cell, detected at A, detected at B), as a (4, 2, 2) array.

    The cell axis is indexed (Alice sign << 1) | Bob sign; the detection
    axes are 0 = missed, 1 = detected.  The hidden variable is integrated
    out, and the 16 entries sum to 1.
    """
    d = policy.d if policy.kind == PolicyKind.UNFAIR_MALUS else 0.0
    # lam-averages of the Plus-channel modulation m(x) = 1 - d + d cos^2(lam - x):
    # E[m(alpha)] = E[m(beta)] and E[m(alpha) m(beta)].  Both are exactly 1 at d = 0.
    mean_m = 1.0 - 0.5 * d
    mean_mm = (1.0 - d) * (1.0 - d) + d * (1.0 - d) + d * d * (
        0.25 + math.cos(2.0 * (s.alpha - s.beta)) / 8.0
    )
    probs = np.empty((4, 2, 2))
    for cell, p_cell in enumerate(joint_prob_table(state, s).as_tuple()):
        a_plus = (cell >> 1) == OutcomeSign.PLUS
        b_plus = (cell & 1) == OutcomeSign.PLUS
        eta_a = eff.eta_a_plus if a_plus else eff.eta_a_minus
        eta_b = eff.eta_b_plus if b_plus else eff.eta_b_minus
        p_a = eta_a * mean_m if a_plus else eta_a
        p_b = eta_b * mean_m if b_plus else eta_b
        # The decisions are independent given lam, so they correlate only
        # when both channels are modulated.
        p_ab = eta_a * eta_b * mean_mm if a_plus and b_plus else p_a * p_b
        probs[cell] = p_cell * np.array(
            [[1.0 - p_a - p_b + p_ab, p_b - p_ab], [p_a - p_ab, p_ab]]
        )
    return np.maximum(probs, 0.0)


def _counts_from_categories(cats: np.ndarray, n_pairs: int) -> BlockCounts:
    """Reduce (4, 2, 2) category counts to block counts."""
    coinc = cats[:, 1, 1]
    at_a = cats[:, 1, :].sum(axis=1)
    at_b = cats[:, :, 1].sum(axis=1)
    return BlockCounts(
        n_pp=int(coinc[0]),
        n_pm=int(coinc[1]),
        n_mp=int(coinc[2]),
        n_mm=int(coinc[3]),
        s_a_plus=int(at_a[0] + at_a[1]),
        s_a_minus=int(at_a[2] + at_a[3]),
        s_b_plus=int(at_b[0] + at_b[2]),
        s_b_minus=int(at_b[1] + at_b[3]),
        n_pairs_emitted=n_pairs,
    )


def simulate_block(
    state: SourceState,
    eff: EfficiencyConfig,
    policy: SamplingPolicy,
    s: SettingsPair,
    n_pairs: int,
    seed,
) -> BlockCounts:
    """Simulate one settings block: one multinomial draw over the 16 categories."""
    if n_pairs < 0:
        raise ValueError(f"n_pairs must be >= 0, got {n_pairs}")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n_pairs, category_probs(state, eff, policy, s).ravel())
    return _counts_from_categories(counts.reshape(4, 2, 2), n_pairs)
