from __future__ import annotations

import math

import numpy as np
import pytest

from delay_cir.cir_analytics import StrongFellerViolated
from delay_cir.experiments import (
    ErrorRow,
    ErrorTable,
    IncomparableModels,
    InsufficientRows,
    PRequestedTooLarge,
    classical_variant,
    comparison_census,
    fit_rate,
    mean_consistency_check,
    modulus_scaling,
    positivity_census,
    strong_error_study,
    survival_probability,
)
from delay_cir.model import (
    GammaSpec,
    GridMisaligned,
    InitialSegmentSpec,
    ModelSpec,
    build_grid,
)
from delay_cir.noise import NotNested, generate, sample_segment
from delay_cir.scheme import simulate_y_paths


def _model(**kw) -> ModelSpec:
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
# strong error study
# ---------------------------------------------------------------------------


def test_error_table_layout_and_coupled_decay():
    table = strong_error_study(
        _model(), (4, 8, 16), n_ref=64, n_paths=200, p_list=(0.5, 1.0), seed=33
    )
    assert table.n_ref == 64 and table.seed == 33
    assert [r.p for r in table.rows] == [0.5] * 3 + [1.0] * 3
    deltas = [r.delta for r in table.rows[:3]]
    assert deltas == [0.125, 0.0625, 0.03125]
    for r in table.rows:
        assert r.n_paths == 200
        assert 0.0 < r.grid_error <= r.uniform_error
        assert 0.0 < r.std_err < r.grid_error
    for p_block in (table.rows[:3], table.rows[3:]):
        gerrs = [r.grid_error for r in p_block]
        uerrs = [r.uniform_error for r in p_block]
        assert gerrs[0] > gerrs[1] > gerrs[2]
        assert uerrs[0] > uerrs[1] > uerrs[2]


def test_error_study_is_deterministic():
    kw = dict(n_ref=16, n_paths=50, p_list=(1.0,), seed=4)
    first = strong_error_study(_model(), (4, 8), **kw)
    second = strong_error_study(_model(), (4, 8), **kw)
    assert first == second


def test_jackknife_se_scales_with_path_count():
    # 1600 paths include the 400 (same seed, nested path indices), so the
    # standard errors shrink by almost exactly sqrt(4).
    small = strong_error_study(_model(), (4, 8), 16, 400, (1.0,), seed=21)
    large = strong_error_study(_model(), (4, 8), 16, 1600, (1.0,), seed=21)
    ratio = small.rows[0].std_err / large.rows[0].std_err
    assert 1.6 < ratio < 2.4


def test_error_study_input_gates():
    with pytest.raises(NotNested):
        strong_error_study(_model(), (8, 4), 64, 10, (1.0,), seed=0)
    with pytest.raises(NotNested):
        strong_error_study(_model(), (4, 6), 64, 10, (1.0,), seed=0)
    with pytest.raises(NotNested):
        strong_error_study(_model(), (4, 8), 8, 10, (1.0,), seed=0)
    with pytest.raises(NotNested):
        strong_error_study(_model(), (4, 8), 20, 10, (1.0,), seed=0)
    with pytest.raises(PRequestedTooLarge):
        strong_error_study(_model(), (4, 8), 16, 10, (16.0,), seed=0)
    with pytest.raises(PRequestedTooLarge):
        strong_error_study(_model(), (4, 8), 16, 10, (-1.0,), seed=0)
    with pytest.raises(StrongFellerViolated):
        strong_error_study(_model(sigma=1.5), (4, 8), 16, 10, (1.0,), seed=0)


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


def _synthetic_table(fn_grid, fn_unif, n_list=(4, 8, 16, 32)) -> ErrorTable:
    rows = tuple(
        ErrorRow(
            delta=0.5 / n,
            p=1.0,
            grid_error=fn_grid(0.5 / n),
            uniform_error=fn_unif(0.5 / n),
            std_err=0.0,
            uniform_std_err=0.0,
            n_paths=1,
        )
        for n in n_list
    )
    return ErrorTable(rows=rows, n_ref=1024, seed=0)


def test_fit_rate_recovers_synthetic_half_order():
    table = _synthetic_table(lambda d: 0.7 * math.sqrt(d), lambda d: d)
    fit = fit_rate(table, 1.0, "plain_delta")
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(0.7), abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.variant == "plain_delta" and fit.p == 1.0


def test_fit_rate_recovers_synthetic_first_order():
    table = _synthetic_table(lambda d: 0.3 * d, lambda d: d)
    assert fit_rate(table, 1.0).slope == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_log_corrected_variant_reads_uniform_errors():
    table = _synthetic_table(
        lambda d: d, lambda d: 0.9 * math.sqrt(d * abs(math.log(d)))
    )
    fit = fit_rate(table, 1.0, "delta_log_delta")
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(0.9), abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_guards():
    table = _synthetic_table(lambda d: d, lambda d: d, n_list=(4, 8))
    with pytest.raises(InsufficientRows):
        fit_rate(table, 1.0)
    full = _synthetic_table(lambda d: d, lambda d: d)
    with pytest.raises(InsufficientRows):
        fit_rate(full, 0.5)  # no rows at that order
    with pytest.raises(ValueError, match="variant"):
        fit_rate(full, 1.0, "cubic")
    zero = _synthetic_table(lambda d: 0.0, lambda d: d)
    with pytest.raises(InsufficientRows):
        fit_rate(zero, 1.0)


# ---------------------------------------------------------------------------
# mean consistency
# ---------------------------------------------------------------------------


def test_mean_check_against_closed_form():
    model = _model(b=0.0, initial=InitialSegmentSpec.constant(2.0))
    rows = mean_consistency_check(
        model, build_grid(model, 32), 4000, (0.375, 0.75, 1.5), seed=42
    )
    assert [r.t for r in rows] == [0.375, 0.75, 1.5]
    for r in rows:
        assert abs(r.z) <= 3.5
        assert r.mc_mean == pytest.approx(r.oracle_mean, rel=0.02)
    # the closed-form oracle itself
    assert rows[-1].oracle_mean == pytest.approx(
        1.0 + math.exp(-1.5), rel=1e-12
    )


def test_mean_check_against_delay_quadrature_oracle():
    model = _model(b=0.5, horizon=1.0)
    rows = mean_consistency_check(
        model, build_grid(model, 16), 3000, (0.5, 1.0), seed=42
    )
    for r in rows:
        assert abs(r.z) <= 4.0
    # delay feedback pushes the mean above the classical level
    assert rows[-1].oracle_mean > 1.0


def test_mean_check_rejects_off_grid_checkpoints():
    model = _model()
    grid = build_grid(model, 8)
    with pytest.raises(GridMisaligned):
        mean_consistency_check(model, grid, 10, (0.123,), seed=0)
    with pytest.raises(GridMisaligned):
        mean_consistency_check(model, grid, 10, (2.5,), seed=0)


def test_zero_noise_limit_approaches_corrected_flow_at_first_order():
    # With the noise switched off the scheme follows the flow of
    # x' = a (gamma - x) - sigma^2 / 4, whose b = 0 closed form shifts the
    # level to gamma - sigma^2 / (4 a); the gap halves with the step.
    model = _model(b=0.0, initial=InitialSegmentSpec.constant(2.0))
    level = 1.0 - 0.25**2 / 4.0
    x_lim = level + (2.0 - level) * math.exp(-1.5)
    gaps = []
    for n in (8, 16, 32):
        grid = build_grid(model, n)
        y = simulate_y_paths(model, grid, np.zeros(grid.n_steps), np.full(n + 1, 2.0))
        gaps.append(abs(float(np.square(y[-1, 0])) - x_lim))
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 1.7 < coarse / fine < 2.3


# ---------------------------------------------------------------------------
# censuses
# ---------------------------------------------------------------------------


def test_comparison_census_identical_models():
    model = _model(b=0.0)
    grid = build_grid(model, 8)
    assert comparison_census(model, model, grid, 50, seed=1) == 0


def test_comparison_census_delay_dominates_classical():
    model = _model()
    grid = build_grid(model, 8)
    assert comparison_census(model, classical_variant(model), grid, 200, seed=2) == 0


def test_comparison_census_flat_gamma_floor():
    upper = _model(b=0.0, gamma=GammaSpec.affine(1.0, 0.4))
    # the grid reaches back to t0 - tau, where the affine gamma bottoms at 0.8
    lower = classical_variant(upper, gamma_level=0.8)
    grid = build_grid(upper, 8)
    assert comparison_census(upper, lower, grid, 100, seed=3) == 0


def test_comparison_census_preconditions():
    model = _model()
    grid = build_grid(model, 8)
    with pytest.raises(IncomparableModels):
        comparison_census(model, _model(b=0.0, sigma=0.3), grid, 10, seed=0)
    with pytest.raises(IncomparableModels):
        comparison_census(model, _model(b=0.1), grid, 10, seed=0)
    with pytest.raises(IncomparableModels):
        comparison_census(
            model,
            classical_variant(model, gamma_level=1.5),  # lower mean above upper
            grid,
            10,
            seed=0,
        )
    with pytest.raises(IncomparableModels):
        comparison_census(
            model,
            _model(b=0.0, initial=InitialSegmentSpec.constant(0.9)),
            grid,
            10,
            seed=0,
        )


def _census_model() -> ModelSpec:
    return ModelSpec(
        a=1.0,
        b=0.0,
        sigma=0.7,
        tau=1.0,
        t0=0.0,
        horizon=1.0,
        gamma=GammaSpec.constant(0.3),
        initial=InitialSegmentSpec.constant(0.05),
    )


def test_positivity_census_separates_the_schemes():
    model = _census_model()
    grid = build_grid(model, 10)
    implicit, truncated, symmetrized = positivity_census(
        ("implicit", "truncated", "symmetrized"), model, grid, 2000, seed=7
    )
    assert implicit.fraction_nonpositive == 0.0
    assert truncated.fraction_nonpositive > 0.2
    assert symmetrized.fraction_nonpositive == 0.0
    assert truncated.scheme == "truncated" and truncated.n_paths == 2000
    with pytest.raises(ValueError, match="scheme"):
        positivity_census(("milstein",), model, grid, 10, seed=0)


# ---------------------------------------------------------------------------
# modulus of continuity
# ---------------------------------------------------------------------------


def test_modulus_whole_interval_is_the_path_range():
    model = _model()
    grid = build_grid(model, 8)
    span = grid.t_end - grid.t0
    res = modulus_scaling(model, grid, 20, (span,), seed=9)
    inc = generate(grid, 9, range(20)).increments
    seg = sample_segment(model.initial, grid, 9, range(20))
    x = np.square(simulate_y_paths(model, grid, inc, seg)[grid.n_per_delay :])
    assert res.rows[0].modulus == pytest.approx(float(np.mean(np.ptp(x, axis=0))), rel=1e-12)
    assert res.rows[0].delta == pytest.approx(span, rel=1e-15)


def test_modulus_nondecreasing_in_the_lag():
    model = _model()
    grid = build_grid(model, 16)
    res = modulus_scaling(
        model, grid, 50, [k * grid.delta for k in (1, 2, 4, 8, 16)], seed=10
    )
    mods = [r.modulus for r in res.rows]
    assert all(lo <= hi for lo, hi in zip(mods, mods[1:]))
    assert res.p == 1.0


def test_modulus_slope_tracks_square_root_log_scale():
    model = _model()
    grid = build_grid(model, 512)
    res = modulus_scaling(
        model, grid, 300, [k * grid.delta for k in (1, 2, 4, 8)], seed=3
    )
    assert 0.8 <= res.slope <= 1.2


def test_modulus_rejects_off_grid_lags():
    model = _model()
    grid = build_grid(model, 8)
    with pytest.raises(GridMisaligned):
        modulus_scaling(model, grid, 10, (0.3 * grid.delta,), seed=0)
    with pytest.raises(GridMisaligned):
        modulus_scaling(model, grid, 10, (0.0,), seed=0)
    with pytest.raises(GridMisaligned):
        modulus_scaling(model, grid, 10, (grid.t_end - grid.t0 + grid.delta,), seed=0)


# ---------------------------------------------------------------------------
# survival functional
# ---------------------------------------------------------------------------


def test_survival_near_deterministic_level():
    # At sigma -> 0 the scheme holds the constant path x = gamma - sigma^2/(4a)
    # (started there), so the functional collapses to exp(-c (T - t0)).
    sigma = 1e-4
    level = 1.0 - sigma**2 / 4.0
    model = _model(b=0.0, sigma=sigma, initial=InitialSegmentSpec.constant(level))
    est = survival_probability(model, build_grid(model, 32), 200, seed=5)
    assert est.value == pytest.approx(math.exp(-level * 1.5), rel=1e-5)
    assert est.std_err < 1e-5


def test_survival_decreases_when_gamma_rises():
    lo = _model(b=0.0)
    hi = _model(b=0.0, gamma=GammaSpec.constant(2.0))
    e_lo = survival_probability(lo, build_grid(lo, 64), 2000, seed=5)
    e_hi = survival_probability(hi, build_grid(hi, 64), 2000, seed=5)
    gap = e_lo.value - e_hi.value
    assert gap > 3.0 * math.hypot(e_lo.std_err, e_hi.std_err)
    assert 0.0 < e_hi.value < e_lo.value < 1.0
    assert e_lo.n_paths == 2000


def test_survival_self_consistent_under_refinement():
    model = _model(b=0.0)
    coarse = survival_probability(model, build_grid(model, 64), 2000, seed=5)
    fine = survival_probability(model, build_grid(model, 128), 2000, seed=5)
    band = 3.0 * math.hypot(coarse.std_err, fine.std_err) + 0.5 / 64.0
    assert abs(coarse.value - fine.value) <= band


# ---------------------------------------------------------------------------
# classical variant helper
# ---------------------------------------------------------------------------


def test_classical_variant_strips_delay():
    model = _model(gamma=GammaSpec.sinusoid(1.0, 0.3, math.pi))
    flat = classical_variant(model, gamma_level=0.7)
    assert flat.b == 0.0
    assert flat.gamma.kind == "constant" and flat.gamma.params[0] == 0.7
    assert flat.a == model.a and flat.sigma == model.sigma
    kept = classical_variant(model)
    assert kept.gamma == model.gamma and kept.b == 0.0
    assert model.b == 0.2  # original untouched
