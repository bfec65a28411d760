from __future__ import annotations

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from scipy.integrate import quad

from delay_cir.cir_analytics import (
    CIRParams,
    ElapsedOutOfRange,
    FellerRatioTooSmall,
    NonPositiveElapsed,
    OrderOutOfRange,
    _large_z_series,
    _transform_coeffs,
    classical_mean,
    laplace_transform,
    lp_constant,
    mean_delay_curve,
    neg_moment,
)
from delay_cir.model import (
    GammaSpec,
    InitialSegmentSpec,
    ModelSpec,
    NonPositiveParameter,
    build_grid,
)


def _params(**kw) -> CIRParams:
    base = dict(a=1.0, gamma=1.0, sigma=1.0, x0=1.0)
    base.update(kw)
    return CIRParams(**base)


# ---------------------------------------------------------------------------
# Laplace transform
# ---------------------------------------------------------------------------


def test_laplace_at_zero_is_one():
    assert laplace_transform(_params(), 0.0, 1.0) == 1.0


def test_laplace_fixture_against_decimal_closed_form():
    # a=1, gamma=1, sigma^2=2, x0=1, t=ln 2: L=1/4, zeta=2, g=1, so the
    # transform at u=1 collapses to exp(-1/3) / (3/2); recomputed here in
    # 40-digit Decimal arithmetic.
    getcontext().prec = 40
    want = (-Decimal(1) / 3).exp() / (Decimal(3) / 2)
    got = laplace_transform(
        CIRParams(a=1.0, gamma=1.0, sigma=math.sqrt(2.0), x0=1.0), 1.0, math.log(2.0)
    )
    assert got == pytest.approx(float(want), rel=1e-14)
    assert got == pytest.approx(0.4776875403825262, rel=1e-14)


def test_laplace_strictly_decreasing_in_u():
    p = _params(x0=1.7)
    vals = [laplace_transform(p, u, 0.8) for u in (0.0, 0.25, 0.5, 1.0, 2.0, 5.0)]
    assert all(hi > lo for hi, lo in zip(vals, vals[1:]))
    assert vals[0] == 1.0 and vals[-1] > 0.0


def test_laplace_derivative_at_zero_recovers_the_mean():
    p = _params(gamma=1.3, x0=0.4, a=0.9)
    t, h = 0.75, 1e-5
    f = [laplace_transform(p, u, t) for u in (0.0, h, 2.0 * h)]
    # one-sided second-order difference (u < 0 is outside the domain)
    mean = -(-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    assert mean == pytest.approx(classical_mean(p, t), rel=1e-6)


def test_laplace_domain_errors():
    with pytest.raises(NonPositiveElapsed):
        laplace_transform(_params(), 1.0, 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        laplace_transform(_params(), -0.5, 1.0)
    with pytest.raises(NonPositiveParameter):
        CIRParams(a=1.0, gamma=1.0, sigma=1.0, x0=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["a", "gamma", "sigma", "x0"])
def test_cir_params_reject_a_non_finite_parameter(name, value):
    # a NaN rate made every oracle return NaN
    with pytest.raises(NonPositiveParameter):
        _params(**{name: value})


# ---------------------------------------------------------------------------
# negative moments
# ---------------------------------------------------------------------------


def _neg_moment_oracle(params: CIRParams, p: float, t: float) -> float:
    """The moment by a route independent of the closed form: the integral

        e^{a p s} / (Gamma(p) x0^p) (zeta/2)^p
        integral_0^1 v^{p-1} (1-v)^alpha e^{-zeta v / 2} dv,  alpha = g - p - 1,

    whose weighted kernel v^{p-1} (1-v)^alpha QUADPACK's algebraic-weight
    rule, quad(weight='alg'), handles natively.
    """
    s = t - params.t0
    decay = math.exp(-params.a * s)
    big_l = params.sigma**2 * (1.0 - decay) / (4.0 * params.a)
    zeta = params.x0 * decay / big_l
    alpha = params.feller_ratio - p - 1.0
    val, err = quad(
        lambda v: math.exp(-0.5 * zeta * v),
        0.0,
        1.0,
        weight="alg",
        wvar=(p - 1.0, alpha),
        epsabs=0.0,
        epsrel=1e-11,
        limit=200,
    )
    assert err < 1e-9 * val
    integral = (0.5 * zeta) ** p * val
    return math.exp(params.a * p * s) / (math.gamma(p) * params.x0**p) * integral


@pytest.mark.parametrize(
    "params, p, t",
    [
        (_params(), 0.5, 1.0),  # left singularity, smooth right end
        (_params(), 1.6, 1.0),  # smooth left end, right singularity
        (_params(sigma=math.sqrt(5.0 / 3.0), x0=2.0), 0.5, 0.7),  # both singular
        (_params(sigma=math.sqrt(2.0 / 3.0)), 1.5, 1.0),  # neither singular
        # short, medium and long elapsed times: z = 399, 23 and 1.1e-10
        (_params(), 0.5, 0.005),  # the large-z series
        (_params(sigma=0.5), 2.5, 0.3),
        (_params(sigma=0.5), 2.5, 25.0),
    ],
)
def test_neg_moment_matches_algebraic_weight_quadrature(params, p, t):
    got = neg_moment(params, p, t)
    want = _neg_moment_oracle(params, p, t)
    assert math.isfinite(got.value)
    assert got.value == pytest.approx(want, rel=1e-9)


def _mp_moment(mpmath, params: CIRParams, p: float, t: float):
    """(2 L)^{-p} Gamma(g - p) / Gamma(g) 1F1(p; g; -zeta / 2) in 40 digits, at
    the float Feller ratio the oracle uses: near g = p the moment is so
    sensitive to g that the ratio's rounding would dominate."""
    with mpmath.workdps(40):
        s, sigma2 = mpmath.mpf(t - params.t0), mpmath.mpf(params.sigma) ** 2
        g, a = mpmath.mpf(params.feller_ratio), mpmath.mpf(params.a)
        big_l = -sigma2 * mpmath.expm1(-a * s) / (4 * a)
        z = params.x0 * mpmath.exp(-a * s) / (2 * big_l)
        return (2 * big_l) ** -p * mpmath.gamma(g - p) / mpmath.gamma(g) * mpmath.hyp1f1(p, g, -z)


def test_neg_moment_matches_the_hypergeometric_formula_in_40_digits():
    mpmath = pytest.importorskip("mpmath")
    branches = set()
    for p in (0.05, 0.5, 1.0, 2.5, 10.0, 50.0):
        for g in (p + 1e-3, p + 0.01, p + 0.5, p + 1.0, p + 2.0, p + 3.7, p + 10.0):
            if not 1.0 < g <= 60.0:
                continue
            for z in (1e-12, 1e-3, 0.5, 3.0, 20.0, 100.0, 1e3, 1e6, 1e20, 1e300):
                # a = gamma = x0 = 1 and sigma^2 = 2 / g: z = g / (e^s - 1)
                params = _params(sigma=math.sqrt(2.0 / g))
                t = math.log1p(g / z)
                got = neg_moment(params, p, t).value
                want = _mp_moment(mpmath, params, p, t)
                assert abs(got - want) <= 1e-12 * want, (p, g, z)
                _, zeta = _transform_coeffs(params, t)
                branches.add(_large_z_series(p, params.feller_ratio, 0.5 * zeta) is None)
    assert branches == {True, False}  # the series and SciPy's hyp1f1 both served
    # g = 20000, z = 5744: 1F1(g - p; g; z) of Kummer's form overflows, and
    # 1F1(p; g; -z) serves
    params = _params(sigma=0.01)
    want = _mp_moment(mpmath, params, 0.5, 1.5)
    assert neg_moment(params, 0.5, 1.5).value == pytest.approx(want, rel=1e-12)


def test_the_large_z_series_matches_1f1_in_40_digits_where_it_serves():
    mpmath = pytest.importorskip("mpmath")
    served = 0
    for p in (0.05, 0.5, 1.0, 2.5, 10.0, 50.0):
        for g in (p + 1e-3, p + 0.01, p + 0.5, p + 1.0, p + 2.0, p + 3.7, p + 10.0):
            for z in (1.0, 20.0, 40.0, 100.0, 1e3, 1e6, 1e20, 1e100, 1e300):
                got = _large_z_series(p, g, z)
                if got is None:
                    continue
                served += 1
                with mpmath.workdps(40):
                    want = (
                        mpmath.mpf(z) ** p * mpmath.gamma(mpmath.mpf(g) - p)
                        / mpmath.gamma(g) * mpmath.hyp1f1(p, g, -mpmath.mpf(z))
                    )
                assert abs(got - want) <= 1e-12 * want, (p, g, z)
    assert served > 200


@pytest.mark.parametrize("t", [0.01, 0.2, 1.0, 3.0, 4.0, 6.0, 30.0])
def test_a_series_that_ends_is_not_taken_for_the_whole_moment(t):
    # g = 2, p = 1: 1F1(1; 2; -z) = (1 - e^{-z}) / z, so the moment is
    # (1 - e^{-z}) e^{a s} / x0; its large-z series ends after one term, 1,
    # and leaves out the e^{-z} (here z runs from 200 down to 5e-14)
    params = _params(x0=1.5)
    _, zeta = _transform_coeffs(params, t)
    want = -math.expm1(-0.5 * zeta) * math.exp(t) / 1.5
    assert neg_moment(params, 1.0, t).value == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("t", [1000.0, 1e300])
def test_neg_moment_tends_to_the_stationary_gamma_moment(t):
    # X(infinity) is Gamma distributed, of shape g and scale sigma^2 / (2 a)
    for params, p in ((_params(), 0.5), (_params(sigma=0.25), 2.0), (_params(a=2.0, x0=3.0), 1.5)):
        g, scale = params.feller_ratio, params.sigma**2 / (2.0 * params.a)
        want = scale**-p * math.gamma(g - p) / math.gamma(g)
        got = neg_moment(params, p, t)
        assert got.value == pytest.approx(want, rel=1e-12)
        if t == 1e300:
            assert got.bound is None  # e^{a p s} leaves the float range
    assert neg_moment(_params(), 0.5, 1000.0).value == pytest.approx(1.2533141373155, rel=1e-12)


def test_neg_moment_short_time_limit_is_inverse_initial_value():
    got = neg_moment(_params(x0=2.0), 0.5, 1e-6)
    assert got.value == pytest.approx(2.0**-0.5, rel=1e-3)


def test_neg_moment_divergence_beats_feller_gate():
    # g = 1/2 < 1 here, but p >= g must answer "infinite", not raise.
    p = _params(sigma=2.0)
    assert p.feller_ratio == 0.5
    res = neg_moment(p, 0.7, 1.0)
    assert res.value == math.inf and res.bound is None
    assert neg_moment(p, 0.5, 1.0).value == math.inf
    # only strictly below g does the small-ratio error fire
    with pytest.raises(FellerRatioTooSmall):
        neg_moment(p, 0.3, 1.0)


def test_neg_moment_carries_the_exponential_bound():
    res = neg_moment(_params(), 0.5, 1.0)  # g = 2, p <= g - 1
    assert res.bound == pytest.approx(math.exp(0.5), rel=1e-15)
    assert res.value <= res.bound
    rng = np.random.default_rng(101)
    for _ in range(25):
        g = rng.uniform(1.2, 4.0)
        sigma = math.sqrt(2.0 / g)
        p = rng.uniform(1.0, g - 0.05)
        if p < 1.0:
            continue
        t = rng.uniform(0.1, 2.0)
        x0 = rng.uniform(0.3, 3.0)
        res = neg_moment(_params(sigma=sigma, x0=x0), p, t)
        assert math.isfinite(res.value) and res.value > 0.0
        assert res.value <= res.bound * (1.0 + 1e-12)


def test_the_oracles_hold_where_a_s_is_below_the_rounding_of_one():
    # L = sigma^2 (1 - e^{-a s}) / (4 a) ~ sigma^2 s / 4: 1 - e^{-a s} rounds
    # to 0 below a s ~ 1e-16, expm1 does not.  As a s -> 0 the transform
    # tends to exp(-u x0 / (1 + 2 u L)).
    for params, t in ((_params(a=1e-300, sigma=0.25), 1.5), (_params(), 1e-300)):
        big_l = params.sigma**2 * t / 4.0
        want = math.exp(-1.0 / (1.0 + 2.0 * big_l))
        assert laplace_transform(params, 1.0, t) == pytest.approx(want, rel=1e-12)
    assert neg_moment(_params(a=1e-300, sigma=0.25), 0.5, 1.5).value == math.inf  # g < p
    assert neg_moment(_params(), 0.5, 1e-300).value == pytest.approx(1.0, rel=1e-12)
    # zeta = x0 e^{-a s} / L overflows to inf: the moment is still x0^-p
    got = neg_moment(_params(sigma=0.25, x0=1e10), 20.0, 1e-300).value
    assert got == pytest.approx(1e-200, rel=1e-12)


def test_the_oracles_reject_elapsed_times_they_cannot_evaluate():
    # a s underflows, so L is 0
    with pytest.raises(ElapsedOutOfRange, match="too short") as info:
        laplace_transform(_params(a=1e-300), 1.0, 1e-300)
    assert info.value.argument == "t"
    with pytest.raises(ElapsedOutOfRange, match="too short"):
        neg_moment(_params(a=1e-300, gamma=1e300), 0.5, 1e-300)  # g = 2


@pytest.mark.parametrize(
    "x0, t, want",
    [
        # e^{a p s} = e^800 and x0^p = 1e600 leave the float range, their
        # ratio does not: X(400) is about x0 e^{-400} = 1.9e126
        (1e300, 400.0, (1e300 * math.exp(-400.0)) ** -2.0),
        # a start of about 0: z is about 1e-158, and the moment is that of a
        # start at 0, (2 L)^{-2} Gamma(30) / Gamma(32), L = (1 - e^{-1}) / 64
        (1e-160, 1.0, (-math.expm1(-1.0) / 32.0) ** -2.0 / (31.0 * 30.0)),
    ],
)
def test_neg_moment_evaluates_where_only_its_factors_leave_the_float_range(x0, t, want):
    assert neg_moment(_params(sigma=0.25, x0=x0), 2.0, t).value == pytest.approx(want, rel=1e-5)


@pytest.mark.parametrize(
    "params, p, t",
    [
        (_params(sigma=0.25, x0=1e300), 2.0, 1.0),  # about x0^-2 = 1e-600
        (_params(x0=1e-300), 1.5, 1e-300),  # z = 2, L = 2.5e-301: about (2 L)^-1.5 = 1e450
    ],
)
def test_neg_moment_raises_where_the_moment_leaves_the_float_range(params, p, t):
    with pytest.raises(OrderOutOfRange, match="leaves the float range"):
        neg_moment(params, p, t)


def test_neg_moment_domain_errors():
    with pytest.raises(OrderOutOfRange):
        neg_moment(_params(), 0.0, 1.0)
    with pytest.raises(NonPositiveElapsed):
        neg_moment(_params(), 0.5, 0.0)
    # finite branch with p > 50 would need Gamma values beyond the trusted window
    with pytest.raises(OrderOutOfRange):
        neg_moment(_params(sigma=math.sqrt(1.0 / 30.0)), 55.0, 1.0)


# ---------------------------------------------------------------------------
# the moment-bound constants
# ---------------------------------------------------------------------------


def test_lp_constant_clean_regime_is_one():
    assert lp_constant(3.0, 1.5) == 1.0
    assert lp_constant(2.0, 1.0) == 1.0


def test_lp_constant_boundary_layer_values():
    assert lp_constant(1.5, 1.0) == pytest.approx(
        math.sqrt(2.0) * (1.0 + 2.0 / math.e), rel=1e-15
    )
    assert lp_constant(1.5, 1.0) == pytest.approx(2.454733752418873, rel=1e-12)
    assert lp_constant(2.5, 2.0) == pytest.approx(
        math.sqrt(2.0) * (1.0 + 16.0 * math.exp(-2.0)), rel=1e-15
    )
    assert lp_constant(2.5, 2.0) == pytest.approx(4.476501450706246, rel=1e-12)


def test_lp_constant_sub_one_orders_are_gated():
    assert lp_constant(2.0, 0.5) == 1.0
    # p < 1 inside the boundary layer stays out of reach
    with pytest.raises(OrderOutOfRange):
        lp_constant(1.3, 0.5)


def test_lp_constant_domain_errors():
    with pytest.raises(FellerRatioTooSmall):
        lp_constant(1.0, 0.5)
    with pytest.raises(OrderOutOfRange):
        lp_constant(2.0, 2.0)
    with pytest.raises(OrderOutOfRange):
        lp_constant(2.0, -1.0)
    with pytest.raises(OrderOutOfRange):
        lp_constant(52.5, 52.0)  # Gamma(52) sits outside the trusted window


# ---------------------------------------------------------------------------
# means
# ---------------------------------------------------------------------------


def _mean_model(b: float, **kw) -> ModelSpec:
    base = dict(
        a=1.0,
        b=b,
        sigma=0.25,
        tau=0.5,
        t0=0.0,
        horizon=1.5,
        gamma=GammaSpec.constant(1.0),
        initial=InitialSegmentSpec.constant(2.0),
    )
    base.update(kw)
    return ModelSpec(**base)


def test_classical_mean_formula():
    p = _params(gamma=1.0, x0=2.0)
    assert classical_mean(p, 0.0) == 2.0
    assert classical_mean(p, 1.0) == pytest.approx(1.0 + math.exp(-1.0), rel=1e-15)
    t = np.array([0.0, 0.5, 1.0])
    assert classical_mean(p, t) == pytest.approx(1.0 + np.exp(-t), rel=1e-15)


def test_mean_curve_without_delay_matches_closed_form():
    model = _mean_model(0.0)
    grid = build_grid(model, 8)
    curve = mean_delay_curve(model, grid)
    ref = classical_mean(CIRParams(a=1.0, gamma=1.0, sigma=0.25, x0=2.0), curve.times)
    assert np.max(np.abs(curve.means - ref)) < 1e-10


def test_mean_curve_delay_feeds_back_positively():
    grid = build_grid(_mean_model(0.4), 8)
    with_delay = mean_delay_curve(_mean_model(0.4), grid).means
    without = mean_delay_curve(_mean_model(0.0), grid).means
    assert with_delay[0] == without[0] == 2.0
    assert np.all(with_delay[1:] > without[1:])


def test_mean_curve_quadrature_and_grid_refinement_stability():
    model = _mean_model(0.4)
    coarse = mean_delay_curve(model, build_grid(model, 8))
    finer_quadrature = mean_delay_curve(model, build_grid(model, 8), substeps=640)
    assert np.max(np.abs(coarse.means - finer_quadrature.means)) < 1e-8
    finer_grid = mean_delay_curve(model, build_grid(model, 16))
    assert np.max(np.abs(coarse.means - finer_grid.means[::2])) < 1e-8
    with pytest.raises(ValueError, match="sub-steps"):
        mean_delay_curve(model, build_grid(model, 8), substeps=16)

