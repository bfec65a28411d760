from __future__ import annotations

import math

import numpy as np
import pytest

from delay_cir.model import (
    ConditionReport,
    GammaNotPositive,
    GammaSpec,
    GridMisaligned,
    HorizonBeforeStart,
    InitialSegmentSpec,
    ModelSpec,
    NonPositiveParameter,
    OutOfDomain,
    OutOfRange,
    build_grid,
    gamma_bounds,
    gamma_eval,
    validate,
)


def _spec(**kw) -> ModelSpec:
    base = dict(
        a=1.0,
        b=0.2,
        sigma=0.25,
        tau=0.5,
        t0=0.0,
        horizon=1.5,
        gamma=GammaSpec.constant(1.0),
        initial=InitialSegmentSpec.constant(1.0),
    )
    base.update(kw)
    return ModelSpec(**base)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_reference_config():
    report = validate(_spec())
    assert report.feller_ok
    assert report.strong_feller_ok
    assert report.m == 3
    # 2 a inf(gamma) / sigma^2 = 32, times 2 / (1 + 3)
    assert report.p_max == 16.0


def test_validate_feller_equality_boundary():
    # sigma^2 = 2 a gamma exactly (4 = 4): ratio 1, equality keeps feller_ok
    # but not the strict version, and nu = ratio - 1 = 0
    report = validate(_spec(b=0.0, sigma=2.0, gamma=GammaSpec.constant(2.0)))
    assert report.feller_ok
    assert not report.strong_feller_ok
    assert report.nu == 0.0


def test_validate_feller_violated_is_reported_not_raised():
    report = validate(_spec(gamma=GammaSpec.constant(0.2), sigma=1.0))
    assert not report.feller_ok
    assert not report.strong_feller_ok


def test_validate_rejects_nonpositive_parameters():
    for kw in ({"a": 0.0}, {"sigma": -1.0}, {"tau": 0.0}, {"b": -0.1}):
        with pytest.raises(NonPositiveParameter) as info:
            validate(_spec(**kw))
        assert info.value.argument == next(iter(kw))
    with pytest.raises(NonPositiveParameter) as info:
        validate(_spec(initial=InitialSegmentSpec.lognormal(1.0, -0.5)))
    assert info.value.argument == "log_sd"


# A spec whose one parameter, named as validate's errors name it, takes the value.
_ONE_PARAMETER = {
    **{name: lambda v, name=name: _spec(**{name: v}) for name in ("a", "b", "sigma", "tau")},
    "t0": lambda v: _spec(t0=v),
    "horizon": lambda v: _spec(horizon=v),
    "gamma0": lambda v: _spec(gamma=GammaSpec.constant(v)),
    "slope": lambda v: _spec(gamma=GammaSpec.affine(1.0, v)),
    "amplitude": lambda v: _spec(gamma=GammaSpec.sinusoid(1.0, v, 1.0)),
    "omega": lambda v: _spec(gamma=GammaSpec.sinusoid(1.0, 0.1, v)),
    "level": lambda v: _spec(initial=InitialSegmentSpec.constant(v)),
    "median": lambda v: _spec(initial=InitialSegmentSpec.lognormal(v, 0.2)),
    "log_sd": lambda v: _spec(initial=InitialSegmentSpec.lognormal(1.0, v)),
    "points": lambda v: _spec(initial=InitialSegmentSpec.table([(-0.5, 1.0), (0.0, v)])),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", list(_ONE_PARAMETER))
def test_validate_rejects_a_non_finite_parameter_and_names_it(name, value):
    with pytest.raises(ValueError) as info:
        validate(_ONE_PARAMETER[name](value))
    assert info.value.argument == name


@pytest.mark.parametrize(
    "median, log_sd, inside",
    [
        # median exp(-8.29 log_sd) underflows to 0, and a draw that low
        # fails in the segment sample; at log_sd 6 it is 2.5e-322
        (1e-300, 37.0, 6.0),
        # a finite mean, median exp(log_sd^2 / 2) = 9e301, and a draw at
        # z = 8.21 that overflows; at log_sd 2 it is 1.4e307
        (1e300, 3.0, 2.0),
    ],
    ids=["lowest-level-underflows", "highest-level-overflows"],
)
def test_validate_rejects_a_lognormal_start_whose_draws_leave_the_floats(median, log_sd, inside):
    with pytest.raises(OutOfRange) as info:
        validate(_spec(initial=InitialSegmentSpec.lognormal(median, log_sd)))
    assert info.value.argument == "log_sd"
    validate(_spec(initial=InitialSegmentSpec.lognormal(median, inside)))


def test_validate_rejects_horizon_before_start():
    with pytest.raises(HorizonBeforeStart):
        validate(_spec(horizon=-1.0))


def test_validate_rejects_nonpositive_gamma():
    with pytest.raises(GammaNotPositive):
        validate(_spec(gamma=GammaSpec.sinusoid(0.5, 1.0, math.pi)))


def test_validate_is_idempotent_and_pure():
    spec = _spec()
    first = validate(spec)
    second = validate(spec)
    assert first == second
    assert isinstance(first, ConditionReport)


def test_condition_report_identity_on_random_configs():
    # p_max * (1 + m) / 2 must reproduce nu + 1 exactly, and both must sit
    # within one ulp of the raw ratio 2 a inf(gamma) / sigma^2.
    rng = np.random.default_rng(7)
    for _ in range(500):
        a = float(rng.uniform(0.1, 5.0))
        sigma = float(rng.uniform(0.05, 2.0))
        gamma0 = float(rng.uniform(0.1, 4.0))
        tau = float(rng.uniform(0.1, 2.0))
        span_mult = int(rng.integers(1, 8))
        spec = _spec(
            a=a,
            b=float(rng.uniform(0.0, 1.0)),
            sigma=sigma,
            tau=tau,
            horizon=span_mult * tau,
            gamma=GammaSpec.constant(gamma0),
        )
        report = validate(spec)
        ratio = 2.0 * a * gamma0 / sigma**2
        if ratio >= 1.0:
            # exact whenever the report can gate anything (p >= 1 needs
            # p_max >= 1); below the Feller ratio 1 the float identity can
            # lose the last bit and only closeness is promised
            assert report.p_max * (1 + report.m) / 2.0 == report.nu + 1.0
        assert math.isclose(report.nu + 1.0, ratio, rel_tol=1e-15)
        assert report.p_max <= ratio * (1.0 + 1e-15)


# ---------------------------------------------------------------------------
# gamma evaluation and bounds
# ---------------------------------------------------------------------------


def test_gamma_eval_constant():
    g = GammaSpec.constant(1.0)
    for t in (-0.3, 0.0, 1.7):
        assert gamma_eval(g, t) == 1.0


def test_gamma_eval_affine():
    g = GammaSpec.affine(1.0, 0.1)
    assert gamma_eval(g, 2.0) == pytest.approx(1.2, abs=1e-15)


def test_gamma_eval_sinusoid():
    g = GammaSpec.sinusoid(1.0, 0.3, math.pi)
    assert gamma_eval(g, 0.5) == pytest.approx(1.3, abs=1e-12)


def test_gamma_eval_out_of_domain():
    g = GammaSpec.constant(1.0)
    with pytest.raises(OutOfDomain):
        gamma_eval(g, 2.1, domain=(-0.5, 2.0))


def test_gamma_bounds_constant():
    assert gamma_bounds(GammaSpec.constant(1.0), 0.0, 2.0) == (1.0, 1.0, 0.0)


def test_gamma_bounds_affine():
    lo, hi, holder = gamma_bounds(GammaSpec.affine(1.0, 0.1), 0.0, 2.0)
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(1.2)
    assert holder == pytest.approx(0.1 * math.sqrt(2.0))


def test_gamma_bounds_sinusoid_matches_dense_grid():
    g = GammaSpec.sinusoid(1.0, 0.3, math.pi)
    lo, hi, holder = gamma_bounds(g, 0.0, 2.0)
    assert lo == pytest.approx(0.7, abs=1e-12)
    assert hi == pytest.approx(1.3, abs=1e-12)
    assert holder == pytest.approx(0.3 * math.pi * math.sqrt(2.0))
    # independent check: dense evaluation over the interval
    ts = np.linspace(0.0, 2.0, 200001)
    vals = gamma_eval(g, ts)
    assert lo <= vals.min() + 1e-9
    assert hi >= vals.max() - 1e-9
    assert vals.min() == pytest.approx(lo, abs=1e-8)
    assert vals.max() == pytest.approx(hi, abs=1e-8)


@pytest.mark.parametrize("omega", [-math.pi, -1.5])
def test_gamma_bounds_sinusoid_with_negative_omega_matches_dense_grid(omega):
    g = GammaSpec.sinusoid(1.0, 0.3, omega)
    lo, hi, holder = gamma_bounds(g, 0.0, 0.8)
    assert holder == pytest.approx(0.3 * abs(omega) * math.sqrt(0.8))
    vals = gamma_eval(g, np.linspace(0.0, 0.8, 200001))
    assert lo <= vals.min() + 1e-9
    assert hi >= vals.max() - 1e-9
    assert vals.min() == pytest.approx(lo, abs=1e-8)
    assert vals.max() == pytest.approx(hi, abs=1e-8)


def test_gamma_bounds_sinusoid_partial_period():
    # interval too short to reach the sine extrema: bounds come from endpoints
    g = GammaSpec.sinusoid(1.0, 0.5, math.pi)
    lo, hi, _ = gamma_bounds(g, 0.0, 0.25)
    ts = np.linspace(0.0, 0.25, 100001)
    vals = gamma_eval(g, ts)
    assert lo == pytest.approx(vals.min(), abs=1e-9)
    assert hi == pytest.approx(vals.max(), abs=1e-9)


def test_gamma_bounds_rejects_nonpositive_infimum():
    with pytest.raises(GammaNotPositive):
        validate(_spec(gamma=GammaSpec.affine(1.0, -2.0)))


# ---------------------------------------------------------------------------
# time grid
# ---------------------------------------------------------------------------


def test_build_grid_quarter_steps():
    spec = _spec(tau=1.0, horizon=2.0, b=0.0)
    grid = build_grid(spec, 4)
    assert grid.n_per_delay == 4
    assert grid.n_steps == 8
    ks = np.arange(-4, 9)
    assert np.array_equal(grid.times(), ks / 4.0)
    for k in range(grid.n_steps):
        # delay alignment is integer arithmetic: exact, not approximate
        assert grid.time(k + 1) - grid.tau == grid.time(k + 1 - grid.n_per_delay)


def test_grid_times_cover_the_delay_window_and_the_horizon():
    spec = _spec(tau=0.5, t0=1.0, horizon=2.5)
    grid = build_grid(spec, 4)
    times = grid.times()
    assert times.shape == (grid.n_per_delay + grid.n_steps + 1,)
    assert times[0] == spec.t0 - spec.tau
    assert times[grid.n_per_delay] == spec.t0
    assert times[-1] == spec.horizon
    ks = np.arange(-grid.n_per_delay, grid.n_steps + 1)
    assert np.array_equal(grid.time(ks), times)


def test_build_grid_minimal():
    spec = _spec(tau=0.5, horizon=0.5)
    grid = build_grid(spec, 1)
    assert np.array_equal(grid.times(), [-0.5, 0.0, 0.5])


def test_build_grid_misaligned():
    spec = _spec(tau=1.0, horizon=1.4)
    with pytest.raises(GridMisaligned):
        build_grid(spec, 3)


def test_delay_lookup_is_integer_arithmetic_on_random_grids():
    # the delay is exactly N steps, so the delayed node of k is k - N, found
    # by index shift, never by subtracting tau from a float time
    rng = np.random.default_rng(11)
    for _ in range(100):
        tau = float(rng.uniform(0.05, 3.0))
        n = int(rng.integers(1, 40))
        mult = int(rng.integers(1, 6))
        t0 = float(rng.uniform(-2.0, 2.0))
        spec = _spec(tau=tau, t0=t0, horizon=t0 + mult * tau)
        grid = build_grid(spec, n)
        assert grid.n_per_delay == n and grid.n_steps == mult * n
        for k in (1, grid.n_steps // 2 + 1, grid.n_steps):
            # node times come from t0 + k * delta directly (no accumulation)
            assert grid.time(k) == t0 + k * grid.delta


# ---------------------------------------------------------------------------
# derived coefficients
# ---------------------------------------------------------------------------


def test_modelspec_derived_coefficients():
    spec = _spec(a=2.0, b=0.6, sigma=0.5)
    assert spec.a_bar == 1.0
    assert spec.b_bar == 0.3
    assert spec.sigma_bar == 0.25
    # a_under(t) = (4 a gamma(t) - sigma^2) / 8 at the constant level 1
    assert spec.a_under(0.7) == pytest.approx((8.0 - 0.25) / 8.0)


def test_modelspec_gamma_at_checks_domain():
    spec = _spec()
    with pytest.raises(OutOfDomain):
        spec.gamma_at(spec.horizon + 1.0)
    with pytest.raises(OutOfDomain):
        spec.gamma_at(spec.t0 - spec.tau - 1.0)


def test_initial_segment_means():
    assert InitialSegmentSpec.constant(2.0).mean_at(0.0) == 2.0
    table = InitialSegmentSpec.table([(-1.0, 2.0), (0.0, 1.0)])
    assert table.mean_at(-0.5) == pytest.approx(1.5)
    logn = InitialSegmentSpec.lognormal(1.0, 0.25)
    assert logn.mean_at(0.0) == pytest.approx(math.exp(0.25**2 / 2.0))
    assert logn.is_random and not table.is_random
