"""Closed-form predictions for a two-photon source with tunable entanglement.

The source emits photon pairs in the polarization state

    (|H>_1 |V>_2  -  p |V>_1 |H>_2) / sqrt(1 + p^2),

where ``p`` in [0, 1] tunes the entanglement (p=1 is the maximally
entangled, singlet-like case; p=0 is the product state |H>|V>).  Each
station analyzes its photon with a two-output polarizer: outcomes are
labelled Plus ("+", transmission at the analyzer angle) and Minus ("-",
the orthogonal output).

Everything in this module is a pure function of the state and the two
analyzer angles.  :func:`joint_prob_table` is the one source of the
model's probabilities: the correlation and the CHSH value are computed
from it, :func:`fairsample.detection.category_probs` weights its cells,
and a station's marginal is a row or column sum of it (Alice's Plus
marginal is ``p_pp + p_pm``, Bob's is ``p_pp + p_mp``).  Its cells are
written out one by one, without trig-identity rewriting, so each line
can be audited directly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class OutcomeSign(enum.IntEnum):
    """Analyzer output channel.  Integer values match the file-format bit."""

    PLUS = 0
    MINUS = 1


class Station(enum.IntEnum):
    """Measurement station.  Integer values match the file-format byte."""

    ALICE = 0
    BOB = 1


@dataclass(frozen=True)
class SourceState:
    """Entanglement parameter of the two-photon source.

    ``p`` is restricted to [0, 1]: values above 1 duplicate p' = 1/p with
    the channel labels swapped, so only the canonical range is accepted.
    """

    p: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0) or not math.isfinite(self.p):
            raise ValueError(f"p must be in [0, 1], got {self.p!r}")


@dataclass(frozen=True)
class SettingsPair:
    """Analyzer angles in radians (any real; predictions are pi-periodic)."""

    alpha: float
    beta: float


@dataclass(frozen=True)
class ProbTable:
    """The four joint outcome probabilities for one settings pair."""

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def __post_init__(self) -> None:
        entries = self.as_tuple()
        for name, value in zip(("p_pp", "p_pm", "p_mp", "p_mm"), entries):
            if not (-1e-12 <= value <= 1.0 + 1e-12):
                raise ValueError(f"{name} out of [0, 1]: {value!r}")
        total = sum(entries)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p_pp, self.p_pm, self.p_mp, self.p_mm)

    def correlation(self) -> float:
        """E = P++ + P-- - P+- - P-+ for this table.

        Divided by the entry sum, which is 1 up to rounding, so a table
        with no (+,-) and (-,+) entries gives exactly 1 and one with no
        (+,+) and (-,-) entries exactly -1.
        """
        total = self.p_pp + self.p_pm + self.p_mp + self.p_mm
        return (self.p_pp + self.p_mm - self.p_pm - self.p_mp) / total


def joint_prob_table(state: SourceState, s: SettingsPair) -> ProbTable:
    """All four joint probabilities at analyzer angles (alpha, beta)."""
    p = state.p
    norm = 1.0 + p * p
    sa, ca = math.sin(s.alpha), math.cos(s.alpha)
    sb, cb = math.sin(s.beta), math.cos(s.beta)
    p_pp = (p * sa * cb - ca * sb) ** 2 / norm
    p_pm = (ca * cb + p * sa * sb) ** 2 / norm
    p_mp = (p * ca * cb + sa * sb) ** 2 / norm
    p_mm = (sa * cb - p * ca * sb) ** 2 / norm
    return ProbTable(p_pp, p_pm, p_mp, p_mm)


def correlation_qt(state: SourceState, s: SettingsPair) -> float:
    """Model correlation E(alpha, beta) = P++ + P-- - P+- - P-+.

    For p=1 this reduces to -cos(2(alpha-beta)).
    """
    return joint_prob_table(state, s).correlation()


def chsh_value(
    state: SourceState, a1: float, a2: float, b1: float, b2: float
) -> float:
    """S = E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2).

    With this source's correlation, |S| peaks at 2*sqrt(2) for p=1 at
    settings (a1, a2, b1, b2) = (0, pi/4, pi/8, -pi/8).
    """
    return (
        correlation_qt(state, SettingsPair(a1, b1))
        + correlation_qt(state, SettingsPair(a1, b2))
        + correlation_qt(state, SettingsPair(a2, b1))
        - correlation_qt(state, SettingsPair(a2, b2))
    )
