"""Point estimates from block counts: two rival normalizations, with errors.

Both normalizations are one operation: divide each coincidence cell n_k by
a per-cell weight w_k, then renormalize the table to sum 1.  Standard
practice takes w_k = 1, i.e. divides by the total number of coincidences.
That cancels the channel efficiencies only when the channels are balanced;
with imbalanced channels the normalized sums are biased
(``evenodd_sums_standard`` states the bias).  The singles normalization
takes w_k = the product of the two singles counts of the cell's channels
(n_k / w_k is the cell's f-ratio); whenever pair detection factorizes into
the two channel efficiencies — the operational content of fair sampling —
those efficiencies cancel exactly, whatever their values.  Comparing the
two normalizations, and checking whether the singles-normalized marginals
move with the distant station's setting, is the core analysis of this
package.

One caveat is intrinsic to the singles normalization and surfaces in the
tests: the singles counts themselves carry the local outcome
probabilities, so for a non-maximally entangled source (p != 1) the
normalized table estimates the joint probabilities *divided by the
product of the true marginals*, renormalized.  For the maximally
entangled source all marginals are 1/2 and the estimate is unbiased; for
p != 1 the estimated marginals at beta = 0 come out as the true marginal
curves with the channel labels exchanged.

One routine, ``_normalize``, serves both weights.  Every estimate is a
fixed sum over its table: the cells, the four marginals, and the parity
sum, which is the correlation.  Every uncertainty is the first-order
(delta-method) propagation of that sum, through the same Jacobian, of
independent Poisson errors on the eight raw counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import BlockCounts
from .quantum import ProbTable


class ZeroSingles(ValueError):
    """A singles count needed as a normalizer is zero."""


class AllZeroRatios(ValueError):
    """Every f-ratio is zero; the normalized table is undefined."""


class NoCoincidences(ValueError):
    """No coincidences at all; coincidence-normalized quantities undefined."""


_LOW_COUNT_THRESHOLD = 10


@dataclass(frozen=True)
class MarginalSet:
    """One probability per channel; each station's pair sums to 1."""

    a_plus: float
    a_minus: float
    b_plus: float
    b_minus: float

    def __post_init__(self) -> None:
        for name, value in zip(
            ("a_plus", "a_minus", "b_plus", "b_minus"), self.as_tuple()
        ):
            if not (-1e-9 <= value <= 1.0 + 1e-9):
                raise ValueError(f"{name} out of [0, 1]: {value!r}")
        if abs(self.a_plus + self.a_minus - 1.0) > 1e-9:
            raise ValueError("a_plus + a_minus must equal 1")
        if abs(self.b_plus + self.b_minus - 1.0) > 1e-9:
            raise ValueError("b_plus + b_minus must equal 1")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a_plus, self.a_minus, self.b_plus, self.b_minus)


@dataclass(frozen=True)
class UncertaintySet:
    """Delta-method 1-sigma values for every derived estimate.

    Entries are NaN where the underlying estimate is itself undefined
    (zero singles, all-zero ratios, or zero coincidences); nothing here
    ever raises.  ``low_statistics`` flags any raw count below 10.
    """

    joint: tuple[float, float, float, float]
    marginals: tuple[float, float, float, float]
    marginals_standard: tuple[float, float, float, float]
    correlation_standard: float
    correlation_singles: float
    low_statistics: bool


@dataclass(frozen=True)
class EstimateSet:
    """Everything the analysis derives from one block of counts."""

    joint: ProbTable
    marginals: MarginalSet
    correlation_standard: float
    sigma: UncertaintySet

    @property
    def correlation_singles(self) -> float:
        """Correlation computed from the singles-normalized table."""
        return self.joint.correlation()


@dataclass(frozen=True)
class ScanPoint:
    """One scan point: settings, raw counts, and estimates (when defined)."""

    alpha: float
    beta: float
    counts: BlockCounts
    est: "EstimateSet | None"


@dataclass(frozen=True)
class ScanResult:
    """An ordered angle scan; the input to the no-signalling fits."""

    points: tuple[ScanPoint, ...]


_SINGLES = ("s_a_plus", "s_a_minus", "s_b_plus", "s_b_minus")
_COUNTS = ("n_pp", "n_pm", "n_mp", "n_mm") + _SINGLES
_CELLS = np.arange(4)
# Count-vector positions of the Alice and Bob singles of each cell.
_CELL_A = np.array([4, 4, 5, 5])
_CELL_B = np.array([6, 7, 6, 7])
# Sums over the cells (pp, pm, mp, mm): the marginals a+, a-, b+, b-, and
# the parity sum, which gives the correlation.
_MARGINS = np.array(
    [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=float
)
_PARITY = np.array([1, -1, -1, 1], dtype=float)
# Layout of the estimates returned by _normalize.
_JOINT, _MARGINALS, _CORRELATION = slice(0, 4), slice(4, 8), 8


def _counts_vector(counts: BlockCounts) -> np.ndarray:
    return np.array([getattr(counts, name) for name in _COUNTS], dtype=float)


def _normalize(x: np.ndarray, weighted: bool) -> tuple[np.ndarray, np.ndarray]:
    """The estimates of one normalization and their 1-sigmas.

    Cell k of the table is n_k / w_k, with w_k = 1 (standard) or, when
    ``weighted``, the product of the singles counts of cell k's channels.
    The estimates are the renormalized cells, the marginals and the
    correlation (layout ``_JOINT``, ``_MARGINALS``, ``_CORRELATION``); the
    sigmas are the delta method through the cells' 4x8 Jacobian in ``x``.
    Raises ZeroSingles, then AllZeroRatios (weighted) or NoCoincidences
    (standard) where the table is undefined.
    """
    if weighted:
        zero = np.flatnonzero(x[4:] == 0)
        if zero.size:
            name = _SINGLES[zero[0]]
            raise ZeroSingles(f"singles count {name} is zero; f-ratios undefined")
        weight = x[_CELL_A] * x[_CELL_B]
    else:
        weight = np.ones(4)
    cells = x[:4] / weight
    total = cells.sum()
    if total <= 0.0:
        if weighted:
            raise AllZeroRatios("all four f-ratios are zero")
        raise NoCoincidences("no coincidences in block")
    jac = np.zeros((4, 8))
    jac[_CELLS, _CELLS] = 1.0 / weight
    if weighted:
        jac[_CELLS, _CELL_A] = -cells / x[_CELL_A]
        jac[_CELLS, _CELL_B] = -cells / x[_CELL_B]
    # Every estimate is a sum over the cells divided by their sum last, so
    # integer counts give exact standard estimates: an empty channel gives
    # marginals of exactly 0 and 1, a table without one parity class a
    # correlation of exactly +-1, each with a sigma of exactly 0.
    values = np.concatenate([cells, _MARGINS @ cells, [_PARITY @ cells]]) / total
    sums_jac = np.vstack([jac, _MARGINS @ jac, _PARITY @ jac])
    grad = (sums_jac - np.outer(values, jac.sum(axis=0))) / total
    return values, np.sqrt((grad * grad) @ x)


def correlation_standard(counts: BlockCounts) -> float:
    """(n_pp + n_mm - n_pm - n_mp) / total coincidences."""
    values, _ = _normalize(_counts_vector(counts), weighted=False)
    return float(values[_CORRELATION])


def evenodd_sums_standard(counts: BlockCounts) -> MarginalSet:
    """The four coincidence-normalized sums, e.g. (n_pp + n_pm) / total.

    Biased whenever a station's channels have unequal efficiencies: the
    efficiency factors scale the numerator cells but not the whole
    denominator, so they do not cancel (unlike in the singles
    normalization).
    """
    values, _ = _normalize(_counts_vector(counts), weighted=False)
    return MarginalSet(*values[_MARGINALS].tolist())


def _uncertainties(
    x: np.ndarray, standard: np.ndarray, singles: np.ndarray
) -> UncertaintySet:
    return UncertaintySet(
        joint=tuple(singles[_JOINT].tolist()),
        marginals=tuple(singles[_MARGINALS].tolist()),
        marginals_standard=tuple(standard[_MARGINALS].tolist()),
        correlation_standard=float(standard[_CORRELATION]),
        correlation_singles=float(singles[_CORRELATION]),
        low_statistics=bool(np.any(x < _LOW_COUNT_THRESHOLD)),
    )


def counting_uncertainties(counts: BlockCounts) -> UncertaintySet:
    """Poisson 1-sigma values for every estimate derived from this block.

    Treats the eight raw counts as independent Poisson variables with
    variance equal to the observed count and propagates to the
    singles-normalized joint table, both kinds of marginals, and both
    correlations.  Undefined entries come back NaN instead of raising.
    """
    x = _counts_vector(counts)
    sigmas = []
    for weighted in (False, True):
        try:
            sigmas.append(_normalize(x, weighted)[1])
        except (ZeroSingles, AllZeroRatios, NoCoincidences):
            sigmas.append(np.full(_CORRELATION + 1, math.nan))
    return _uncertainties(x, *sigmas)


def estimate_block(counts: BlockCounts) -> EstimateSet:
    """All estimates for one block; raises if any piece is undefined."""
    x = _counts_vector(counts)
    singles, sigma_singles = _normalize(x, weighted=True)
    standard, sigma_standard = _normalize(x, weighted=False)
    return EstimateSet(
        joint=ProbTable(*singles[_JOINT].tolist()),
        marginals=MarginalSet(*singles[_MARGINALS].tolist()),
        correlation_standard=float(standard[_CORRELATION]),
        sigma=_uncertainties(x, sigma_standard, sigma_singles),
    )
