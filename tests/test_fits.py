"""Weighted least squares, model comparison, and the no-signalling judgement."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import fairsample
from fairsample.detection import (
    BlockCounts,
    EfficiencyConfig,
    PolicyKind,
    SamplingPolicy,
    simulate_block,
)
from fairsample.estimator import (
    EstimateSet,
    MarginalSet,
    ScanPoint,
    ScanResult,
    UncertaintySet,
    estimate_block,
)
from fairsample.fits import (
    DegenerateWeights,
    FitModel,
    InsufficientPoints,
    _f_sf,
    fit_marginal_curve,
    fit_model,
    nosignalling_stats,
)
from fairsample.quantum import ProbTable, SettingsPair, SourceState, Station

ANGLES = np.linspace(0.0, math.pi, 21)


def _sigma(n, value=0.005):
    return np.full(n, value)


# ---------------------------------------------------------------------------
# fit_model
# ---------------------------------------------------------------------------


def test_constant_fit_recovers_mean():
    rng = np.random.default_rng(1)
    y = 0.5 + rng.normal(0.0, 0.005, ANGLES.size)
    rep = fit_model(ANGLES, y, _sigma(ANGLES.size), FitModel.CONSTANT)
    assert rep.params[0] == pytest.approx(float(np.mean(y)), abs=1e-12)
    assert rep.dof == ANGLES.size - 1
    # Well-specified model: chi² concentrates around its dof.
    assert rep.chi2 == pytest.approx(rep.dof, abs=5 * math.sqrt(2 * rep.dof))


def test_cosine_fit_recovers_components_and_amplitude():
    rng = np.random.default_rng(3)
    y = 0.5 + 0.04 * np.cos(2 * ANGLES) + 0.02 * np.sin(2 * ANGLES)
    y = y + rng.normal(0.0, 0.004, ANGLES.size)
    rep = fit_model(ANGLES, y, _sigma(ANGLES.size, 0.004), FitModel.COSINE)
    assert rep.params[1] == pytest.approx(0.04, abs=5 * math.sqrt(rep.cov[1][1]))
    assert rep.params[2] == pytest.approx(0.02, abs=5 * math.sqrt(rep.cov[2][2]))
    assert rep.amplitude == pytest.approx(math.hypot(0.04, 0.02), abs=5 * rep.amplitude_sigma)
    assert rep.amplitude_sigma > 0.0


def test_fit_respects_weights():
    # One point with a hundred-fold smaller error dominates the constant fit.
    x = np.array([0.0, 1.0, 2.0])
    y = np.array([0.0, 0.0, 1.0])
    sigma = np.array([1.0, 1.0, 0.01])
    rep = fit_model(x, y, sigma, FitModel.CONSTANT)
    assert rep.params[0] == pytest.approx(1.0, abs=1e-3)


def test_fit_rejects_insufficient_points():
    with pytest.raises(InsufficientPoints):
        fit_model(np.array([0.1, 0.2]), np.array([1.0, 2.0]), _sigma(2), FitModel.COSINE)
    with pytest.raises(InsufficientPoints):
        fit_model(np.array([]), np.array([]), _sigma(0), FitModel.CONSTANT)


def test_fit_rejects_degenerate_design():
    # All x equal: the cosine design matrix has rank 1.
    y = np.linspace(0.0, 1.0, 6)
    for x0 in (0.0, 0.3):
        with pytest.raises(InsufficientPoints, match="rank 1"):
            fit_model(np.full(6, x0), y, _sigma(6), FitModel.COSINE)


@pytest.mark.parametrize("n_points", [5, 6])
def test_fit_rejects_cosine_design_on_right_angles(n_points):
    # At multiples of 90 degrees sin 2x is rounding noise of order 1e-16,
    # so the design has rank 2 although inv() of its normal matrix succeeds.
    x = np.radians(90.0 * np.arange(n_points))
    y = np.linspace(0.4, 0.6, n_points)
    sigma = np.linspace(0.004, 0.006, n_points)
    with pytest.raises(InsufficientPoints, match="rank 2"):
        fit_model(x, y, sigma, FitModel.COSINE)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_fit_rejects_degenerate_weights(bad):
    sigma = _sigma(6)
    sigma[3] = bad
    with pytest.raises(DegenerateWeights):
        fit_model(np.linspace(0, 1, 6), np.ones(6), sigma, FitModel.CONSTANT)


# ---------------------------------------------------------------------------
# fit_marginal_curve / F-test
# ---------------------------------------------------------------------------


def test_noiseless_constant_data_is_not_significant():
    y = np.full(ANGLES.size, 0.5)
    fits = fit_marginal_curve(ANGLES, y, _sigma(ANGLES.size))
    assert fits[FitModel.CONSTANT].chi2 == pytest.approx(0.0, abs=1e-18)
    cos = fits[FitModel.COSINE]
    assert cos.f_stat == 0.0
    assert cos.p_value == 1.0
    assert cos.amplitude == pytest.approx(0.0, abs=1e-9)
    assert math.isfinite(cos.amplitude_sigma)


def test_noiseless_cosine_data_is_infinitely_significant():
    y = 0.5 + 0.05 * np.cos(2 * ANGLES)
    fits = fit_marginal_curve(ANGLES, y, _sigma(ANGLES.size))
    cos = fits[FitModel.COSINE]
    assert math.isinf(cos.f_stat)
    assert cos.p_value == 0.0


def test_saturated_fit_is_refused():
    # Exactly as many points as parameters would leave zero residual degrees
    # of freedom, making every downstream statistic undefined.
    x = np.array([0.0, 0.5, 1.0])
    y = np.array([0.0, 1.0, 0.5])
    with pytest.raises(InsufficientPoints):
        fit_model(x, y, _sigma(3, 0.1), FitModel.COSINE)


def test_chi2_never_increases_with_nested_parameters():
    rng = np.random.default_rng(4)
    for _ in range(10):
        y = rng.uniform(0.3, 0.7, ANGLES.size)
        fits = fit_marginal_curve(ANGLES, y, _sigma(ANGLES.size, 0.02))
        assert fits[FitModel.COSINE].chi2 <= fits[FitModel.CONSTANT].chi2 + 1e-9


def test_cosine_significance_on_noisy_modulation():
    rng = np.random.default_rng(5)
    y = 0.5 + 0.05 * np.cos(2 * ANGLES) + rng.normal(0.0, 0.005, ANGLES.size)
    fits = fit_marginal_curve(ANGLES, y, _sigma(ANGLES.size))
    assert fits[FitModel.COSINE].p_value < 1e-6
    assert fits[FitModel.COSINE].amplitude / fits[FitModel.COSINE].amplitude_sigma > 5


# ---------------------------------------------------------------------------
# The F-test p-value, computed without scipy
# ---------------------------------------------------------------------------


def test_f_sf_matches_scipy():
    f_values = np.concatenate([[0.0], np.logspace(-10, 5, 300), [math.inf]])
    for d2 in range(1, 501):
        ref = stats.f.sf(f_values, 2, d2)
        got = np.array([_f_sf(float(f), d2) for f in f_values])
        usable = ref > 1e-300
        assert got[usable] == pytest.approx(ref[usable], rel=1e-10, abs=0.0), d2
    assert _f_sf(0.0, 18) == 1.0
    assert _f_sf(math.inf, 18) == 0.0
    assert math.isnan(_f_sf(math.nan, 18))


@pytest.mark.parametrize("d2", [10**4, 10**5])
def test_f_sf_matches_scipy_at_large_d2(d2):
    # At large d2 the exponent -(d2/2) log1p(2f/d2) must not lose 2f/d2
    # to rounding in 1 + 2f/d2.
    f_values = np.logspace(-10, 5, 300)
    ref = stats.f.sf(f_values, 2, d2)
    got = np.array([_f_sf(float(f), d2) for f in f_values])
    usable = ref > 1e-300
    assert float(np.max(np.abs(got[usable] / ref[usable] - 1.0))) <= 2e-11


def _block_scan(policy, seed):
    eff = EfficiencyConfig(0.35, 0.35, 0.35, 0.35)
    points = []
    for i, alpha in enumerate(ANGLES):
        s = SettingsPair(float(alpha), 0.0)
        counts = simulate_block(SourceState(1.0), eff, policy, s, 600_000, (seed, i))
        points.append(
            ScanPoint(alpha=float(alpha), beta=0.0, counts=counts, est=estimate_block(counts))
        )
    return ScanResult(points=tuple(points))


@pytest.mark.parametrize(
    "policy",
    [SamplingPolicy(PolicyKind.FAIR), SamplingPolicy(PolicyKind.UNFAIR_MALUS, d=0.5)],
    ids=["fair", "unfair_malus"],
)
def test_nosignalling_p_values_match_scipy(policy):
    for seed in range(5):
        report = nosignalling_stats(_block_scan(policy, seed), varied=Station.ALICE)
        for mf in report.marginals.values():
            cos = mf.fits[FitModel.COSINE]
            ref = float(stats.f.sf(cos.f_stat, 2, cos.dof))
            assert cos.p_value == pytest.approx(ref, rel=1e-10, abs=0.0)
            if mf.verdict is not None:
                assert mf.verdict == ("consistent" if ref >= report.alpha_level else "violated")
        assert report.consistent == (policy.kind == PolicyKind.FAIR)


def test_package_imports_without_scipy():
    # scipy would cost every CLI process about two seconds of start-up.
    code = (
        "import sys, fairsample, fairsample.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = Path(fairsample.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=120,
        env={"PYTHONPATH": str(src), "PATH": ""},
    )
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# nosignalling_stats on synthetic scans
# ---------------------------------------------------------------------------


def _estimate(a_plus, b_plus, sigma=0.005):
    a_minus, b_minus = 1.0 - a_plus, 1.0 - b_plus
    joint = ProbTable(
        a_plus * b_plus, a_plus * b_minus, a_minus * b_plus, a_minus * b_minus
    )
    marginals = MarginalSet(a_plus, a_minus, b_plus, b_minus)
    sig = UncertaintySet(
        joint=(sigma,) * 4,
        marginals=(sigma,) * 4,
        marginals_standard=(sigma,) * 4,
        correlation_standard=2 * sigma,
        correlation_singles=2 * sigma,
        low_statistics=False,
    )
    return EstimateSet(
        joint=joint, marginals=marginals, correlation_standard=joint.correlation(), sigma=sig
    )


def _scan(b_plus_fn, rng=None, n_missing=0, beta=0.0):
    counts = BlockCounts(100, 100, 100, 100, 1000, 1000, 1000, 1000)
    points = []
    for i, a in enumerate(ANGLES):
        if i < n_missing:
            points.append(ScanPoint(alpha=float(a), beta=beta, counts=counts, est=None))
            continue
        b_plus = b_plus_fn(a)
        if rng is not None:
            b_plus += rng.normal(0.0, 0.005)
        a_plus = 0.5 + (rng.normal(0.0, 0.005) if rng is not None else 0.0)
        points.append(
            ScanPoint(alpha=float(a), beta=beta, counts=counts, est=_estimate(a_plus, b_plus))
        )
    return ScanResult(points=tuple(points))


def test_flat_marginals_judged_consistent():
    scan = _scan(lambda a: 0.5, rng=np.random.default_rng(6))
    report = nosignalling_stats(scan, varied=Station.ALICE)
    assert report.consistent
    assert report.distant == Station.BOB
    assert report.marginals["b_plus"].verdict == "consistent"
    assert report.marginals["a_plus"].verdict is None
    assert all(mf.n_points == ANGLES.size for mf in report.marginals.values())


def test_modulated_distant_marginal_judged_violated():
    scan = _scan(lambda a: 0.5 + 0.05 * math.cos(2 * a), rng=np.random.default_rng(7))
    report = nosignalling_stats(scan, varied=Station.ALICE)
    assert not report.consistent
    fits = report.marginals["b_plus"]
    assert fits.verdict == "violated"
    cos = fits.fits[FitModel.COSINE]
    assert cos.amplitude == pytest.approx(0.05, abs=3 * cos.amplitude_sigma)
    assert cos.amplitude / cos.amplitude_sigma > 5.0


def test_varied_station_own_marginal_gets_no_verdict():
    # A sloped own-station marginal must not trip the distant-side judgement.
    rng = np.random.default_rng(8)
    counts = BlockCounts(100, 100, 100, 100, 1000, 1000, 1000, 1000)
    points = []
    for a in ANGLES:
        a_plus = 0.5 + 0.2 * math.cos(2 * a) + rng.normal(0.0, 0.005)
        points.append(
            ScanPoint(alpha=float(a), beta=0.0, counts=counts, est=_estimate(a_plus, 0.5 + rng.normal(0.0, 0.005)))
        )
    report = nosignalling_stats(ScanResult(points=tuple(points)), varied=Station.ALICE)
    assert report.consistent
    assert report.marginals["a_plus"].verdict is None


def test_varied_bob_attaches_verdicts_to_alice():
    rng = np.random.default_rng(9)
    counts = BlockCounts(100, 100, 100, 100, 1000, 1000, 1000, 1000)
    points = tuple(
        ScanPoint(
            alpha=0.0,
            beta=float(b),
            counts=counts,
            est=_estimate(0.5 + rng.normal(0.0, 0.005), 0.5 + rng.normal(0.0, 0.005)),
        )
        for b in ANGLES
    )
    report = nosignalling_stats(ScanResult(points=points), varied=Station.BOB)
    assert report.distant == Station.ALICE
    assert report.marginals["a_plus"].verdict in {"consistent", "violated"}
    assert report.marginals["b_plus"].verdict is None


def test_skipped_points_are_counted():
    scan = _scan(lambda a: 0.5, rng=np.random.default_rng(10), n_missing=4)
    report = nosignalling_stats(scan, varied=Station.ALICE)
    assert all(mf.n_points == ANGLES.size - 4 for mf in report.marginals.values())


@pytest.mark.parametrize(
    "counts, sigmas, skipped",
    [
        # Every coincidence in the -- cell: the singles-normalized marginals
        # are exactly 0 and 1, and their delta-method sigmas exactly 0.
        (BlockCounts(0, 0, 0, 9, 1, 9, 2, 9), (0.0,) * 4, (1, 1)),
        # No coincidence on Bob's Plus channel: Bob's marginals are exactly
        # 0 and 1 with zero sigma, while Alice's are still defined.
        (
            BlockCounts(0, 5, 0, 4, 6, 5, 1, 9),
            (pytest.approx(0.226, abs=5e-4),) * 2 + (0.0, 0.0),
            (0, 1),
        ),
    ],
    ids=["all-in-one-cell", "bob-only"],
)
def test_zero_sigma_point_is_skipped(counts, sigmas, skipped):
    est = estimate_block(counts)
    assert est.sigma.marginals == sigmas
    points = list(_scan(lambda a: 0.5, rng=np.random.default_rng(13)).points)
    points[9] = ScanPoint(alpha=points[9].alpha, beta=0.0, counts=counts, est=est)
    report = nosignalling_stats(ScanResult(points=tuple(points)), varied=Station.ALICE)
    used = tuple(report.marginals[name].n_points for name in ("a_plus", "b_plus"))
    assert used == tuple(ANGLES.size - k for k in skipped)


def test_too_few_usable_points_raises():
    scan = _scan(lambda a: 0.5, rng=np.random.default_rng(11), n_missing=ANGLES.size - 4)
    with pytest.raises(InsufficientPoints):
        nosignalling_stats(scan, varied=Station.ALICE)


def test_wandering_fixed_angle_rejected():
    counts = BlockCounts(100, 100, 100, 100, 1000, 1000, 1000, 1000)
    points = tuple(
        ScanPoint(alpha=float(a), beta=0.01 * i, counts=counts, est=_estimate(0.5, 0.5))
        for i, a in enumerate(ANGLES)
    )
    with pytest.raises(ValueError, match="constant"):
        nosignalling_stats(ScanResult(points=points), varied=Station.ALICE)


@pytest.mark.parametrize("alpha_level", [0.0, 1.0, -0.5, math.nan, "0.05", None])
def test_alpha_level_validated(alpha_level):
    # A string or None is a bad value like NaN: no TypeError from the comparison.
    scan = _scan(lambda a: 0.5, rng=np.random.default_rng(12))
    with pytest.raises(ValueError):
        nosignalling_stats(scan, varied=Station.ALICE, alpha_level=alpha_level)
