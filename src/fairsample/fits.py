"""Weighted least-squares model fits and the no-signalling test.

Each singles-normalized marginal estimate, viewed as a curve over the
varied analyzer angle, is fit with three nested models:

    Constant:  y = c0
    Linear:    y = c0 + c1*x
    Cosine:    y = c0 + c1*cos(2x) + c2*sin(2x)

The cosine frequency is fixed at 2 (period pi) because every angle
dependence in this experiment family is built from squared sines and
cosines of the angles.  Fits are weighted by the counting uncertainties;
each richer model is compared against Constant with an F-test.

A station's marginals must not depend on the *other* station's setting.
The no-signalling verdict for a distant-station marginal is therefore
"consistent" when the cosine model is not a significant improvement over
Constant (p >= alpha_level), and "violated" otherwise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .estimator import ScanResult
from .quantum import Station


class InsufficientPoints(ValueError):
    """Too few usable scan points for the requested fit."""


class DegenerateWeights(ValueError):
    """A fit weight is non-positive or non-finite."""


class FitModel(enum.Enum):
    CONSTANT = "constant"
    LINEAR = "linear"
    COSINE = "cosine"


_N_PARAMS = {FitModel.CONSTANT: 1, FitModel.LINEAR: 2, FitModel.COSINE: 3}

MARGINAL_NAMES = ("a_plus", "a_minus", "b_plus", "b_minus")


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
    """All three model fits for one marginal curve."""

    name: str
    n_points: int
    fits: dict[FitModel, FitReport]
    verdict: "str | None"


@dataclass(frozen=True)
class NoSignallingReport:
    """Fit results for all four marginals and the distant-station verdict."""

    varied: Station
    distant: Station
    alpha_level: float
    marginals: dict[str, MarginalFits]
    consistent: bool
    n_points_used: int
    n_points_skipped: int


def _design_matrix(x: np.ndarray, model: FitModel) -> np.ndarray:
    if model == FitModel.CONSTANT:
        return np.ones((x.shape[0], 1))
    if model == FitModel.LINEAR:
        return np.column_stack([np.ones_like(x), x])
    return np.column_stack([np.ones_like(x), np.cos(2.0 * x), np.sin(2.0 * x)])


def fit_model(
    x: np.ndarray, y: np.ndarray, sigma: np.ndarray, model: FitModel
) -> FitReport:
    """Weighted least-squares fit of one model; no model comparison."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    n = x.shape[0]
    k = _N_PARAMS[model]
    if y.shape[0] != n or sigma.shape[0] != n:
        raise ValueError("x, y and sigma must have equal length")
    if n - k <= 0:
        raise InsufficientPoints(
            f"{model.value} fit needs more than {k} points, got {n}"
        )
    if np.any(~np.isfinite(sigma)) or np.any(sigma <= 0.0):
        raise DegenerateWeights("sigmas must be finite and > 0")
    if np.any(~np.isfinite(x)) or np.any(~np.isfinite(y)):
        raise DegenerateWeights("x and y must be finite")

    design = _design_matrix(x, model)
    sqrt_w = 1.0 / sigma
    dw = design * sqrt_w[:, None]
    yw = y * sqrt_w
    normal = dw.T @ dw
    try:
        cov = np.linalg.inv(normal)
    except np.linalg.LinAlgError:
        raise InsufficientPoints(
            f"{model.value} design matrix is singular for these x values"
        ) from None
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


# Lentz's continued fraction stops when a step changes the value by less
# than _CF_EPS (relative); _CF_TINY stands in for a zero denominator.
_CF_EPS = 1e-15
_CF_TINY = 1e-300
_CF_MAX_STEPS = 10_000


# Above this argument the Stirling series of log Gamma, cut after the
# 1/x**11 term, is exact to double precision.
_STIRLING_MIN = 10.0
# Coefficients of 1/x, 1/x**3, ..., 1/x**11 in log Gamma(x) minus its
# Stirling approximation (x - 1/2) log x - x + log(2 pi)/2 (DLMF 5.11.1).
_STIRLING_TERMS = (
    1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0, -691.0 / 360360.0,
)


def _stirling_corr(x: float) -> float:
    """log Gamma(x) - (x - 1/2) log x + x - log(2 pi)/2, for x >= _STIRLING_MIN."""
    inv_sq = 1.0 / (x * x)
    total = 0.0
    for coef in reversed(_STIRLING_TERMS):
        total = total * inv_sq + coef
    return total / x


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) without the cancellation of three large log Gammas.

    When an argument is large, lgamma(a + b) - lgamma(a) - lgamma(b)
    subtracts numbers of size a log a whose difference is of order one,
    so the Stirling terms that cancel are taken out by hand and only
    small corrections remain.
    """
    p, q = min(a, b), max(a, b)
    if q < _STIRLING_MIN:
        return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    s = p + q
    corr = _stirling_corr(q) - _stirling_corr(s)
    if p < _STIRLING_MIN:
        # lgamma(q) - lgamma(s) = corr - (q - 1/2) log(1 + p/q) - p log s + p.
        return math.lgamma(p) + corr - (q - 0.5) * math.log1p(p / q) - p * math.log(s) + p
    return (
        0.5 * math.log(2.0 * math.pi / s)
        + corr
        + _stirling_corr(p)
        + (p - 0.5) * math.log(p / s)
        + (q - 0.5) * math.log1p(-p / s)
    )


def _f_sf(f: float, d1: int, d2: int) -> float:
    """P(F > f) for the F distribution with (d1, d2) degrees of freedom.

    This is the regularized incomplete beta I_x(d2/2, d1/2) at
    x = d2 / (d2 + d1 f), by Lentz's continued fraction (DLMF 8.17.22;
    Numerical Recipes 6.4).  The fraction converges fast for
    x < (a+1)/(a+b+2); above that the symmetry I_x(a, b) = 1 - I_y(b, a)
    is used, so a small p-value is never formed by cancellation.  Both
    x and its complement y come straight from r = d1 f / d2.
    """
    if math.isnan(f):
        return math.nan
    if f <= 0.0:
        return 1.0
    if f == math.inf:
        return 0.0
    r = d1 * f / d2
    log_x, log_y = -math.log1p(r), math.log(r) - math.log1p(r)
    a, b = d2 / 2.0, d1 / 2.0
    if 1.0 / (1.0 + r) < (a + 1.0) / (a + b + 2.0):
        return _beta_cf(a, b, log_x, log_y)
    return 1.0 - _beta_cf(b, a, log_y, log_x)


def _beta_cf(a: float, b: float, log_x: float, log_y: float) -> float:
    """I_x(a, b) by its continued fraction, given log x and log(1 - x)."""
    x = math.exp(log_x)
    front = math.exp(a * log_x + b * log_y - _log_beta(a, b)) / a
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_STEPS):
        # Even step d_2m, then odd step d_2m+1 of DLMF 8.17.22.
        for coef in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + coef / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            step = c * d
            h *= step
        if abs(step - 1.0) < _CF_EPS:
            return front * h
    raise ArithmeticError(f"incomplete beta did not converge (a={a}, b={b})")


# chi-squared this small is rounding noise, not a residual: with correct
# 1/sigma weights a genuine misfit contributes O(1) per point.
_PERFECT_CHI2 = 1e-20


def _f_test_vs_constant(chi2_const: float, fit: FitReport) -> tuple[float, float]:
    """F statistic and p-value of ``fit`` against the Constant fit.

    Degenerate cases: if the constant fit is already perfect there is
    nothing to improve (p = 1); if only the richer fit is perfect the
    improvement is infinitely significant (p = 0).
    """
    extra = _N_PARAMS[fit.model] - 1
    if chi2_const <= _PERFECT_CHI2:
        return 0.0, 1.0
    if fit.chi2 <= _PERFECT_CHI2:
        return math.inf, 0.0
    improvement = max(chi2_const - fit.chi2, 0.0)
    f_stat = (improvement / extra) / (fit.chi2 / fit.dof)
    p_value = _f_sf(f_stat, extra, fit.dof)
    return f_stat, p_value


def fit_marginal_curve(
    x: np.ndarray, y: np.ndarray, sigma: np.ndarray
) -> dict[FitModel, FitReport]:
    """Fit all three models and attach F-test comparisons to Constant."""
    fits = {model: fit_model(x, y, sigma, model) for model in FitModel}
    chi2_const = fits[FitModel.CONSTANT].chi2
    out: dict[FitModel, FitReport] = {FitModel.CONSTANT: fits[FitModel.CONSTANT]}
    for model in (FitModel.LINEAR, FitModel.COSINE):
        fit = fits[model]
        f_stat, p_value = _f_test_vs_constant(chi2_const, fit)
        out[model] = FitReport(
            model=fit.model,
            params=fit.params,
            cov=fit.cov,
            chi2=fit.chi2,
            dof=fit.dof,
            f_stat=f_stat,
            p_value=p_value,
            amplitude=fit.amplitude,
            amplitude_sigma=fit.amplitude_sigma,
        )
    return out


def nosignalling_stats(
    scan: ScanResult, varied: Station, alpha_level: float = 0.01
) -> NoSignallingReport:
    """Fit all four marginal curves against the varied angle and judge.

    Points whose estimates or uncertainties are unavailable (failed
    estimation, NaN sigmas) are skipped; at least 5 usable points are
    required.  Verdicts are attached to the *distant* station's marginals
    only — the varied station's own marginals legitimately depend on its
    own angle for a non-maximally-entangled source.
    """
    if not (0.0 < alpha_level < 1.0):
        raise ValueError(f"alpha_level must be in (0, 1), got {alpha_level!r}")
    distant = Station.BOB if varied == Station.ALICE else Station.ALICE

    fixed_angles = [
        pt.beta if varied == Station.ALICE else pt.alpha for pt in scan.points
    ]
    if fixed_angles and (max(fixed_angles) - min(fixed_angles)) > 1e-12:
        raise ValueError("the non-varied angle must be constant across the scan")

    marginals: dict[str, MarginalFits] = {}
    n_used = 0
    n_skipped = 0
    consistent = True
    for idx, name in enumerate(MARGINAL_NAMES):
        xs, ys, ss = [], [], []
        for pt in scan.points:
            if pt.est is None:
                continue
            y = pt.est.marginals.as_tuple()[idx]
            s = pt.est.sigma.marginals[idx]
            if not (math.isfinite(y) and math.isfinite(s)):
                continue
            xs.append(pt.alpha if varied == Station.ALICE else pt.beta)
            ys.append(y)
            ss.append(s)
        n_valid = len(xs)
        if idx == 0:
            n_used = n_valid
            n_skipped = len(scan.points) - n_valid
        if n_valid < 5:
            raise InsufficientPoints(
                f"marginal {name}: {n_valid} usable points, need at least 5"
            )
        fits = fit_marginal_curve(np.array(xs), np.array(ys), np.array(ss))
        is_distant = name.startswith("b" if distant == Station.BOB else "a")
        verdict: "str | None" = None
        if is_distant:
            p_cos = fits[FitModel.COSINE].p_value
            verdict = "consistent" if p_cos >= alpha_level else "violated"
            consistent = consistent and verdict == "consistent"
        marginals[name] = MarginalFits(
            name=name, n_points=n_valid, fits=fits, verdict=verdict
        )

    return NoSignallingReport(
        varied=varied,
        distant=distant,
        alpha_level=alpha_level,
        marginals=marginals,
        consistent=consistent,
        n_points_used=n_used,
        n_points_skipped=n_skipped,
    )
