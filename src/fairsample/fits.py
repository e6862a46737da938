"""Weighted least-squares model fits and the no-signalling test.

Each singles-normalized marginal estimate, viewed as a curve over the
varied analyzer angle, is fit with two nested models:

    Constant:  y = c0
    Cosine:    y = c0 + c1*cos(2x) + c2*sin(2x)

The cosine frequency is fixed at 2 (period pi) because every angle
dependence in this experiment family is built from squared sines and
cosines of the angles.  Fits are weighted by the counting uncertainties.
Cosine is compared against Constant with an F-test: with n points its
statistic follows F(2, n - 3) when the curve is flat, and the survival
function of F(2, d2) has the closed form (1 + 2f/d2)**(-d2/2), from the
regularized incomplete beta I_x(a, 1) = x**a (DLMF 8.17).

A station's marginals must not depend on the *other* station's setting.
The no-signalling verdict is therefore "consistent" when, for the distant
station's marginal, the cosine model is not a significant improvement over
Constant (p >= alpha_level), and "violated" otherwise.

Only each station's Plus marginal is fitted.  A station's two outcome
probabilities sum to 1, and the estimator gives the Minus marginal as
1 - Plus with the same delta-method sigma, so a Minus fit would mirror
the Plus fit in chi-squared, amplitude and p-value.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .estimator import ScanResult
from .quantum import Station


class InsufficientPoints(ValueError):
    """Too few usable scan points for the requested fit."""


class DegenerateWeights(ValueError):
    """A fit weight is non-positive or non-finite."""


class FitModel(enum.Enum):
    CONSTANT = "constant"
    COSINE = "cosine"

# Each station's Plus marginal: its name and its position in the estimate's
# marginal tuples.
_PLUS = {Station.ALICE: ("a_plus", 0), Station.BOB: ("b_plus", 2)}


@dataclass(frozen=True)
class FitReport:
    """One weighted least-squares fit, plus its comparison to Constant.

    ``f_stat``/``p_value`` are NaN for the Constant model itself.  The
    ``amplitude`` fields are filled for the Cosine model only: amplitude
    is sqrt(c1^2 + c2^2) and its sigma comes from the parameter
    covariance by first-order propagation.
    """

    model: FitModel
    params: tuple[float, ...]
    cov: tuple[tuple[float, ...], ...]
    chi2: float
    dof: int
    f_stat: float = math.nan
    p_value: float = math.nan
    amplitude: float = math.nan
    amplitude_sigma: float = math.nan


@dataclass(frozen=True)
class MarginalFits:
    """Both model fits for one marginal curve."""

    n_points: int
    verdict: "str | None"
    fits: dict[FitModel, FitReport]


@dataclass(frozen=True)
class NoSignallingReport:
    """Fits of each station's Plus marginal and the distant station's verdict.

    This dataclass and those it holds are the layout of ``nosignalling.json``'s
    ``report``: their fields, in declared order, are its keys.
    """

    distant: Station
    alpha_level: float
    consistent: bool
    marginals: dict[str, MarginalFits]


def _design_matrix(x: np.ndarray, model: FitModel) -> np.ndarray:
    if model == FitModel.CONSTANT:
        return np.ones((x.shape[0], 1))
    return np.column_stack([np.ones_like(x), np.cos(2.0 * x), np.sin(2.0 * x)])


def fit_model(
    x: np.ndarray, y: np.ndarray, sigma: np.ndarray, model: FitModel
) -> FitReport:
    """Weighted least-squares fit of one model; no model comparison.

    A design whose weighted columns are linearly dependent at double
    precision (all x equal, or cosine angles on multiples of 90 degrees,
    where sin 2x vanishes) raises InsufficientPoints.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    n = x.shape[0]
    if y.shape[0] != n or sigma.shape[0] != n:
        raise ValueError("x, y and sigma must have equal length")
    if np.any(~np.isfinite(sigma)) or np.any(sigma <= 0.0):
        raise DegenerateWeights("sigmas must be finite and > 0")
    if np.any(~np.isfinite(x)) or np.any(~np.isfinite(y)):
        raise DegenerateWeights("x and y must be finite")
    design = _design_matrix(x, model)
    k = design.shape[1]
    if n - k <= 0:
        raise InsufficientPoints(
            f"{model.value} fit needs more than {k} points, got {n}"
        )

    sqrt_w = 1.0 / sigma
    dw = design * sqrt_w[:, None]
    yw = y * sqrt_w
    rank = np.linalg.matrix_rank(dw)
    if rank < k:
        raise InsufficientPoints(
            f"{model.value} design has rank {rank} < {k} for these x values"
        )
    cov = np.linalg.inv(dw.T @ dw)
    params = cov @ (dw.T @ yw)
    resid = yw - dw @ params
    chi2 = float(resid @ resid)

    amplitude = math.nan
    amplitude_sigma = math.nan
    if model == FitModel.COSINE:
        c1, c2 = params[1], params[2]
        amplitude = math.hypot(c1, c2)
        block = cov[1:, 1:]
        if amplitude > 0.0:
            grad = np.array([c1, c2]) / amplitude
            amplitude_sigma = math.sqrt(float(grad @ block @ grad))
        else:
            amplitude_sigma = math.sqrt(float(max(block[0, 0], block[1, 1])))

    return FitReport(
        model=model,
        params=tuple(float(v) for v in params),
        cov=tuple(tuple(float(v) for v in row) for row in cov),
        chi2=chi2,
        dof=n - k,
        amplitude=amplitude,
        amplitude_sigma=amplitude_sigma,
    )


def _f_sf(f: float, d2: int) -> float:
    """P(F > f) for the F distribution with (2, d2) degrees of freedom.

    This is the regularized incomplete beta I_x(d2/2, 1) at
    x = d2 / (d2 + 2f), and I_x(a, 1) = x**a (DLMF 8.17), so
    P(F > f) = (1 + 2f/d2)**(-d2/2).  It is formed from log1p, so a
    small p-value keeps its relative precision.
    """
    if math.isnan(f):
        return math.nan
    if f <= 0.0:
        return 1.0
    if f == math.inf:
        return 0.0
    return math.exp(-0.5 * d2 * math.log1p(2.0 * f / d2))


# chi-squared this small is rounding noise, not a residual: with correct
# 1/sigma weights a genuine misfit contributes O(1) per point.
_PERFECT_CHI2 = 1e-20


def _f_test_vs_constant(chi2_const: float, cosine: FitReport) -> tuple[float, float]:
    """F statistic and p-value of the Cosine fit against the Constant fit.

    Cosine has two parameters more than Constant.  Degenerate cases: if
    the constant fit is already perfect there is nothing to improve
    (p = 1); if only the cosine fit is perfect the improvement is
    infinitely significant (p = 0).
    """
    if chi2_const <= _PERFECT_CHI2:
        return 0.0, 1.0
    if cosine.chi2 <= _PERFECT_CHI2:
        return math.inf, 0.0
    improvement = max(chi2_const - cosine.chi2, 0.0)
    f_stat = (improvement / 2) / (cosine.chi2 / cosine.dof)
    return f_stat, _f_sf(f_stat, cosine.dof)


def fit_marginal_curve(
    x: np.ndarray, y: np.ndarray, sigma: np.ndarray
) -> dict[FitModel, FitReport]:
    """Fit both models and attach the F-test against Constant to Cosine."""
    constant = fit_model(x, y, sigma, FitModel.CONSTANT)
    cosine = fit_model(x, y, sigma, FitModel.COSINE)
    f_stat, p_value = _f_test_vs_constant(constant.chi2, cosine)
    return {
        FitModel.CONSTANT: constant,
        FitModel.COSINE: replace(cosine, f_stat=f_stat, p_value=p_value),
    }


def check_alpha_level(alpha_level) -> None:
    """Raise ValueError unless ``alpha_level`` is a real in (0, 1); NaN is not."""
    if not (isinstance(alpha_level, numbers.Real) and 0.0 < alpha_level < 1.0):
        raise ValueError(f"alpha_level must be in (0, 1), got {alpha_level!r}")


def nosignalling_stats(
    scan: ScanResult, varied: Station, alpha_level: float = 0.01
) -> NoSignallingReport:
    """Fit each station's Plus marginal against the varied angle and judge.

    Points whose estimates or uncertainties are unavailable (failed
    estimation, NaN or zero sigmas) are left out of that marginal's fit,
    and each fit records its own point count; at least 5 usable points
    are required.  The verdict is attached to the *distant* station's
    marginal only — the varied station's own marginal legitimately
    depends on its own angle for a non-maximally-entangled source.
    """
    check_alpha_level(alpha_level)
    distant = Station.BOB if varied == Station.ALICE else Station.ALICE

    fixed_angles = [
        pt.beta if varied == Station.ALICE else pt.alpha for pt in scan.points
    ]
    if fixed_angles and (max(fixed_angles) - min(fixed_angles)) > 1e-12:
        raise ValueError("the non-varied angle must be constant across the scan")

    marginals: dict[str, MarginalFits] = {}
    for station, (name, idx) in _PLUS.items():
        xs, ys, ss = [], [], []
        for pt in scan.points:
            if pt.est is None:
                continue
            y = pt.est.marginals.as_tuple()[idx]
            s = pt.est.sigma.marginals[idx]
            # A zero sigma (every coincidence in one cell) cannot weight a fit.
            if not (math.isfinite(y) and math.isfinite(s) and s > 0.0):
                continue
            xs.append(pt.alpha if varied == Station.ALICE else pt.beta)
            ys.append(y)
            ss.append(s)
        n_valid = len(xs)
        if n_valid < 5:
            raise InsufficientPoints(
                f"marginal {name}: {n_valid} usable points, need at least 5"
            )
        fits = fit_marginal_curve(np.array(xs), np.array(ys), np.array(ss))
        verdict: "str | None" = None
        if station == distant:
            p_cos = fits[FitModel.COSINE].p_value
            verdict = "consistent" if p_cos >= alpha_level else "violated"
        marginals[name] = MarginalFits(n_points=n_valid, verdict=verdict, fits=fits)

    return NoSignallingReport(
        distant=distant,
        alpha_level=alpha_level,
        consistent=marginals[_PLUS[distant][0]].verdict == "consistent",
        marginals=marginals,
    )
