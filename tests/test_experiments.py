from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from delay_cir import experiments
from delay_cir.cir_analytics import StrongFellerViolated, mean_delay_curve
from delay_cir.experiments import (
    ErrorRow,
    ErrorTable,
    IncomparableModels,
    InsufficientRows,
    PRequestedTooLarge,
    check_levels,
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
    off_grid,
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


def test_a_study_of_no_levels_names_n_list(monkeypatch):
    # both used to raise IndexError on n_list[-1]
    monkeypatch.setattr(experiments, "map_paths", _no_paths_run)
    for study in (
        lambda: check_levels(_model(), [], 64, [1.0]),
        lambda: strong_error_study(_model(), [], 64, 10, (1.0,), seed=0),
    ):
        with pytest.raises(ValueError, match="empty list") as info:
            study()
        assert info.value.argument == "n_list"


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


def test_the_log_corrected_fit_leaves_out_a_step_of_one():
    # delta |log delta| is 0 at delta = 1, whose log the fit cannot take:
    # that row is left out, and three others are needed
    def table(deltas):
        rows = tuple(
            ErrorRow(d, 1.0, d, 0.9 * math.sqrt(d * abs(math.log(d))) if d != 1.0 else 5.0,
                     0.0, 0.0, 1)
            for d in deltas
        )
        return ErrorTable(rows=rows, n_ref=64, seed=0)

    fit = fit_rate(table((1.0, 0.5, 0.25, 0.125)), 1.0, "delta_log_delta")
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit_rate(table((1.0, 0.5, 0.25)), 1.0).slope == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InsufficientRows, match="got 2"):
        fit_rate(table((1.0, 0.5, 0.25)), 1.0, "delta_log_delta")


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


def test_mean_check_rejects_t0_under_a_deterministic_start():
    # every path holds X0 at t0: the standard error there is zero
    model = _model()
    with pytest.raises(ValueError, match="deterministic start"):
        mean_consistency_check(model, build_grid(model, 8), 10, (0.0, 0.5), seed=0)


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
    span = grid.n_steps * grid.delta
    res = modulus_scaling(model, grid, 20, (span,), seed=9)
    inc = generate(grid, 9, range(20))
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
        modulus_scaling(model, grid, 10, ((grid.n_steps + 1) * grid.delta,), seed=0)


def test_lags_and_checkpoints_share_one_grid_tolerance():
    # N = 10^7 steps per delay, K = 3e7: the decimal lengths d land within
    # 4e-9 steps of their lags, which an absolute 1e-9 rejected as lags while
    # checkpoint_indices took the same numbers as times
    model = _model(tau=0.3, horizon=0.9)
    grid = build_grid(model, 10**7)
    deltas = (0.37037034, 0.51515151, 0.89999997, 0.9)
    lags = [12345678, 17171717, 29999999, 30000000]
    assert experiments.modulus_lags(grid, deltas) == lags
    assert experiments.checkpoint_indices(model, grid, deltas) == lags
    for d in deltas:
        assert off_grid(d / grid.delta, 0) and not off_grid(d / grid.delta, round(d / grid.delta))
    # a third of a step, at any step count, is off the grid
    assert off_grid(1e7 + 1.0 / 3.0, 10**7) and off_grid(1.0 / 3.0, 0)


def _no_paths_run(*args, **kwargs):
    raise AssertionError("paths ran")


def test_a_modulus_of_no_lags_names_delta_list(monkeypatch):
    # it used to raise IndexError on the largest lag
    model = _model()
    monkeypatch.setattr(experiments, "map_paths", _no_paths_run)
    with pytest.raises(ValueError, match="empty list") as info:
        modulus_scaling(model, build_grid(model, 8), 10, [], 1)
    assert info.value.argument == "delta_list"


@pytest.mark.parametrize("p", [0.0, -1.0, math.inf, math.nan])
def test_modulus_order_is_checked_before_any_path_runs(monkeypatch, p):
    # p = 0 used to simulate every path and then divide by zero; p = -1
    # returned a table of harmonic-mean "norms"
    model = _model()
    grid = build_grid(model, 8)
    monkeypatch.setattr(experiments, "map_paths", _no_paths_run)
    with pytest.raises(ValueError, match="the modulus order must be positive and finite"):
        modulus_scaling(model, grid, 16, (grid.delta, 2 * grid.delta), seed=0, p=p)


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


@pytest.mark.parametrize("n_per_delay, horizon, n_steps", [(64, 1.5, 192), (256, 20.0, 10240)])
def test_survival_chunks_do_not_shrink_as_the_horizon_grows(n_per_delay, horizon, n_steps):
    # the fold holds one running row per path, not the path's K + 1 nodes,
    # so 2048 paths walk in one chunk at the CLI's default K = 192 as at
    # K = 10 240
    model = _model(b=0.0, horizon=horizon)
    grid = build_grid(model, n_per_delay)
    with experiments.recorded_walks() as walks:
        survival_probability(model, grid, 2048, seed=5)
    (plan,) = walks
    assert grid.n_steps == n_steps
    assert (plan.chunks, plan.paths) == (1, 2048)


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


# ---------------------------------------------------------------------------
# the path engine
# ---------------------------------------------------------------------------

DRIVERS = {
    "strong_rate": lambda model, grid, n, threads=1: strong_error_study(
        model, (4, 8), 16, n, (1.0,), seed=0, threads=threads
    ),
    "mean_check": lambda model, grid, n, threads=1: mean_consistency_check(
        model, grid, n, (1.5,), seed=0, threads=threads
    ),
    "comparison": lambda model, grid, n, threads=1: comparison_census(
        model, classical_variant(model), grid, n, seed=0, threads=threads
    ),
    "positivity": lambda model, grid, n, threads=1: positivity_census(
        ("implicit",), model, grid, n, seed=0, threads=threads
    ),
    "modulus": lambda model, grid, n, threads=1: modulus_scaling(
        model, grid, n, (grid.delta,), seed=0, threads=threads
    ),
    "survival": lambda model, grid, n, threads=1: survival_probability(
        model, grid, n, seed=0, threads=threads
    ),
}


@pytest.mark.parametrize("name", list(DRIVERS))
def test_every_driver_rejects_a_run_of_no_paths(monkeypatch, name):
    # it used to fail in np.concatenate: "need at least one array to concatenate"
    model = _model()
    monkeypatch.setattr(experiments.noise_mod, "generate", _no_paths_run)
    with pytest.raises(ValueError, match="need at least two paths, got 0"):
        DRIVERS[name](model, build_grid(model, 8), 0)


@pytest.mark.parametrize(
    "n_paths, threads, argument",
    [(16, 0, "threads"), (16, -1, "threads"), (1, 1, "n_paths")],
    ids=["no-workers", "negative-workers", "one-path"],
)
@pytest.mark.parametrize("name", list(DRIVERS))
def test_every_driver_checks_the_run_size_before_any_path_runs(
    monkeypatch, name, n_paths, threads, argument
):
    # threads = 0 used to divide by zero in the chunking; one path gave a
    # standard error of NaN
    model = _model()
    monkeypatch.setattr(experiments, "map_paths", _no_paths_run)
    with pytest.raises(ValueError) as info:
        DRIVERS[name](model, build_grid(model, 8), n_paths, threads)
    assert info.value.argument == argument


def test_a_census_of_no_scheme_is_rejected_before_any_path_runs(monkeypatch):
    model = _model()
    monkeypatch.setattr(experiments, "map_paths", _no_paths_run)
    with pytest.raises(ValueError) as info:
        positivity_census((), model, build_grid(model, 8), 16, seed=0)
    assert info.value.argument == "scheme"


@pytest.mark.parametrize(
    "other",
    [
        dict(tau=0.25, horizon=3.0),
        dict(horizon=3.0),
        dict(t0=0.5, horizon=2.0),
        dict(horizon=1.0),
    ],
    ids=["other-delay", "other-horizon", "other-start", "shorter-horizon"],
)
def test_every_driver_rejects_a_grid_that_is_not_the_models(monkeypatch, other):
    # each used to march the grid it was given: past the model's horizon,
    # with another delay, or from another start
    model = _model()
    grid = build_grid(replace(model, **other), 8)
    monkeypatch.setattr(experiments, "map_paths", _no_paths_run)
    monkeypatch.setattr(experiments.noise_mod, "generate", _no_paths_run)
    runs = {name: DRIVERS[name] for name in DRIVERS if name != "strong_rate"}  # builds its own
    runs["mean_delay_curve"] = lambda model, grid, n: mean_delay_curve(model, grid)
    for name, run in runs.items():
        with pytest.raises(GridMisaligned, match="is not the model's grid of N = 8") as info:
            run(model, grid, 16)
        assert info.value.argument == "grid", name


def test_a_grid_of_a_shorter_horizon_is_named_before_the_times_past_its_end(monkeypatch):
    # a checkpoint or a modulus delta of the model's horizon lies past the
    # grid's; the error used to name the checkpoints or the delta list
    model = _model()
    grid = build_grid(replace(model, horizon=1.0), 8)
    monkeypatch.setattr(experiments, "map_paths", _no_paths_run)
    runs = {
        "mean_check": lambda: mean_consistency_check(model, grid, 16, (1.5,), seed=0),
        "modulus": lambda: modulus_scaling(model, grid, 16, (1.5,), seed=0),
    }
    for name, run in runs.items():
        with pytest.raises(GridMisaligned, match="is not the model's grid of N = 8") as info:
            run()
        assert info.value.argument == "grid", name


def test_walk_plan_rejects_a_run_of_no_workers():
    model = _model()
    grid = build_grid(model, 8)
    with pytest.raises(ValueError) as info:
        experiments.walk_plan(model, grid, [(model, grid, 1)], 16, 0, fold_rows=lambda span: 0)
    assert info.value.argument == "threads"
