from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from delay_cir.experiments import _cell_weights, _fold_cell_errors
from delay_cir.model import (
    GammaSpec,
    InitialSegmentSpec,
    ModelSpec,
    OutOfDomain,
    build_grid,
)
from delay_cir.noise import NonPositiveSample, block_sum, generate, sample_segment
from delay_cir.scheme import (
    DelayNotSupported,
    NonPositiveForcing,
    ProxyRequiresBLessThanA,
    UnresolvableTime,
    diffusive_value,
    implicit_residual,
    implicit_step,
    simulate_y_paths,
    small_tau_proxy_paths,
    symmetrized_euler_paths,
    truncated_euler_paths,
)


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


def _increments(grid, n_paths: int, seed: int) -> np.ndarray:
    """Time-major increments (steps, paths) of paths 0 .. n_paths-1."""
    return generate(grid, seed=seed, path_index=range(n_paths))


def _residuals(model, grid, y: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """Defect of every implicit step along already-simulated paths."""
    n = grid.n_per_delay
    k_steps = grid.n_steps
    au = np.asarray(model.a_under(grid.time(np.arange(1, k_steps + 1))), dtype=float)
    y_prev = y[n:-1]
    y_next = y[n + 1 :]
    z = y[1 : 1 + k_steps]
    noise = model.sigma_bar * np.reshape(inc, (k_steps, -1))
    au = au[:, None]
    return implicit_residual(
        y_next, y_prev, z, noise, au, model.a_bar, model.b_bar, grid.delta
    )


# ---------------------------------------------------------------------------
# implicit_step
# ---------------------------------------------------------------------------


def test_step_zero_linear_term_root():
    # s = y_prev + noise = 0 leaves only the sqrt term: y = sqrt(c * delta)
    assert implicit_step(0.5, 0.0, -0.5, 4.0, 0.0, 0.0, 0.25) == 1.0


def test_step_identity_fixed_point_in_the_vanishing_forcing_limit():
    # With a_bar = b_bar = 0 and no noise the update is the identity.  The
    # exact a_under = 0 edge is reserved for the error below, so approach it
    # from above: a denormal forcing is swallowed by the discriminant.
    assert implicit_step(1.0, 0.0, 0.0, 1e-300, 0.0, 0.0, 0.25) == 1.0
    assert implicit_step(1.0, 0.0, 0.0, 1e-12, 0.5, 0.0, 0.25) == pytest.approx(
        1.0 / 1.125, rel=1e-9
    )


def test_step_rejects_nonpositive_forcing():
    with pytest.raises(NonPositiveForcing):
        implicit_step(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25)
    with pytest.raises(NonPositiveForcing):
        implicit_step(1.0, 0.0, 0.0, -0.1, 0.5, 0.0, 0.25)
    with pytest.raises(NonPositiveForcing):
        # b_bar z^2 can rescue a negative a_under, but not here (0.3*0 = 0)
        implicit_step(1.0, 0.0, 0.0, -0.1, 0.5, 0.3, 0.25)
    # one bad component poisons a vectorised call
    with pytest.raises(NonPositiveForcing):
        implicit_step(
            np.array([1.0, 1.0]), 0.0, 0.0, np.array([0.2, -0.2]), 0.5, 0.0, 0.1
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", range(7))
def test_step_rejects_non_finite_input(position, bad):
    # y_prev, z_delay, noise, a_under_next, a_bar, b_bar, delta
    args = [1.0, 0.5, 0.1, 1.0, 0.5, 0.2, 0.01]
    args[position] = bad
    with pytest.raises(ValueError):
        implicit_step(*args)
    # in one component of a vectorised call as well
    args[position] = np.array([1.0, bad]) if position < 4 else bad
    with pytest.raises(ValueError):
        implicit_step(*args)


def test_step_nan_forcing_is_not_positive():
    # NaN <= 0 is False: the forcing test must not let NaN through
    with pytest.raises(NonPositiveForcing):
        implicit_step(1.0, math.nan, 0.1, 1.0, 0.5, 0.2, 0.01)
    with pytest.raises(NonPositiveForcing):
        implicit_step(1.0, 0.5, 0.1, math.nan, 0.5, 0.2, 0.01)
    with pytest.raises(ValueError, match="finite"):
        implicit_step(math.nan, 0.5, 0.1, 1.0, 0.5, 0.2, 0.01)
    with pytest.raises(ValueError, match="finite"):
        implicit_step(1.0, 0.5, math.inf, 1.0, 0.5, 0.2, 0.01)


def test_step_negative_a_under_rescued_by_delay_term():
    y = implicit_step(1.0, 2.0, 0.0, -0.1, 0.5, 0.3, 0.25)
    assert y > 0.0
    res = implicit_residual(y, 1.0, 2.0, 0.0, -0.1, 0.5, 0.3, 0.25)
    assert abs(res) <= 1e-12 * (1.0 + y)


def _bisect_implicit(y_prev, z, noise, au, a_bar, b_bar, delta, lo=1e-12, hi=50.0):
    def f(y):
        return y - y_prev - (au / y - a_bar * y + b_bar * z * z / y) * delta - noise

    assert f(lo) < 0.0 < f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_step_matches_scalar_bisection():
    args = dict(y_prev=1.0, z=1.0, noise=0.1, au=0.2, a_bar=0.5, b_bar=0.3, delta=0.1)
    root = _bisect_implicit(**args)
    assert root == pytest.approx(1.0912560, abs=1e-6)
    y = implicit_step(
        args["y_prev"], args["z"], args["noise"], args["au"], args["a_bar"],
        args["b_bar"], args["delta"],
    )
    assert y == pytest.approx(root, abs=1e-9)


def test_step_deep_negative_s_stays_accurate():
    # s = y_prev + noise = -50: the naive (s + sqrt(...)) form loses ~12
    # digits to cancellation; the residual certifies the stable branch.
    y = implicit_step(0.5, 0.0, -50.5, 0.5, 0.5, 0.0, 0.1)
    assert y > 0.0
    res = implicit_residual(y, 0.5, 0.0, -50.5, 0.5, 0.5, 0.0, 0.1)
    assert abs(res) <= 1e-10 * (1.0 + y)
    root = _bisect_implicit(0.5, 0.0, -50.5, 0.5, 0.5, 0.0, 0.1)
    assert y == pytest.approx(root, rel=1e-9)


def test_step_monotone_in_state_and_forcing():
    rng = np.random.default_rng(7)
    s_lo = rng.uniform(-3.0, 3.0, size=300)
    s_hi = s_lo + rng.uniform(1e-6, 1.0, size=300)
    au = rng.uniform(0.05, 2.0, size=300)
    y_lo = implicit_step(s_lo, 0.0, 0.0, au, 0.5, 0.0, 0.1)
    y_hi = implicit_step(s_hi, 0.0, 0.0, au, 0.5, 0.0, 0.1)
    assert np.all(y_hi > y_lo)

    c_lo = rng.uniform(0.05, 2.0, size=300)
    c_hi = c_lo + rng.uniform(1e-6, 1.0, size=300)
    s = rng.uniform(-3.0, 3.0, size=300)
    assert np.all(
        implicit_step(s, 0.0, 0.0, c_hi, 0.5, 0.0, 0.1)
        > implicit_step(s, 0.0, 0.0, c_lo, 0.5, 0.0, 0.1)
    )


def test_step_root_beyond_the_overflow_of_s_squared():
    # s * s overflows: the root is about c delta / |s| below zero and
    # s / (1 + a_bar delta) above it, not 0 and inf
    y = implicit_step(1.0, 1.0, -2e154, 0.5, 0.5, 0.0, 1e-3)
    assert y == pytest.approx(0.5e-3 / 2e154, rel=1e-12)
    y = implicit_step(1.0, 1.0, 2e154, 0.5, 0.5, 0.0, 1e-3)
    assert y == pytest.approx(2e154 / (1.0 + 0.5e-3), rel=1e-12)


def test_step_root_keeps_its_bits_where_s_squared_is_finite():
    rng = np.random.default_rng(5)
    s = rng.standard_normal(2000) * 10.0 ** rng.uniform(-10.0, 150.0, 2000)
    c = rng.uniform(0.01, 5.0, 2000)
    a_bar, delta = 0.5, 1e-3
    one_plus = 1.0 + a_bar * delta
    disc = np.sqrt(s * s + (4.0 * delta) * one_plus * c)
    with np.errstate(divide="ignore"):
        want = np.where(
            s >= 0.0, (s + disc) / (2.0 * one_plus), (2.0 * delta) * c / (disc - s)
        )
    got = implicit_step(s, 0.0, 0.0, c, a_bar, 0.0, delta)
    assert got.tobytes() == want.tobytes()


# The root over |s| up to 1e300, forcing c down to 1e-12 and steps down to
# 1e-300.  Cases whose root or c delta would fall below the normal range are
# left out: there c delta / |s| cannot be represented to full precision.
_EPS = np.finfo(float).eps
_S = st.floats(-1e300, 1e300)
_C = st.floats(1e-12, 1e6)
_A_BAR = st.floats(0.0, 10.0)
_DELTA = st.floats(1e-300, 1.0)


def _representable(s, c, delta):
    return c * delta >= 1e-280 and (s >= 0.0 or c * delta / -s > 1e-290)


def _root(s, c, a_bar, delta):
    return implicit_step(s, 0.0, 0.0, c, a_bar, 0.0, delta)


@given(_S, _C, _A_BAR, _DELTA)
@example(-2e154, 0.5, 0.5, 1e-3)
@example(2e154, 0.5, 0.5, 1e-3)
@example(-1e300, 1e6, 10.0, 1.0)
@example(1e300, 1e-12, 0.0, 1e-268)
@example(0.0, 1e-12, 3.0, 1e-268)
def test_step_root_is_positive_finite_and_solves_its_equation(s, c, a_bar, delta):
    assume(_representable(s, c, delta))
    y = _root(s, c, a_bar, delta)
    assert 0.0 < y < math.inf
    # (1 + a_bar delta) y - s - c delta / y = 0, relative to the terms' sizes
    terms = ((1.0 + a_bar * delta) * y, s, c * delta / y)
    assert abs(terms[0] - terms[1] - terms[2]) <= 8 * _EPS * sum(map(abs, terms))


@given(_S, _S, _C, _A_BAR, _DELTA)
@example(-2e154, -1e154, 0.5, 0.5, 1e-3)
@example(1e154, 2e154, 0.5, 0.5, 1e-3)
@example(-1e-300, 0.0, 1e-6, 0.5, 1e-3)
def test_step_root_is_monotone_in_s(s1, s2, c, a_bar, delta):
    lo, hi = sorted((s1, s2))
    assume(_representable(lo, c, delta))
    y_lo, y_hi = _root(lo, c, a_bar, delta), _root(hi, c, a_bar, delta)
    if (lo >= 0.0) == (hi >= 0.0):
        # one branch of the root: each rounded step is monotone in s (where
        # s * s overflows, sqrt(1 + q / s^2) rounds to 1 for these c, delta)
        assert y_lo <= y_hi
    else:
        # the two branches meet at s = 0, each rounded on its own
        assert y_lo <= y_hi * (1.0 + 4 * _EPS)


# ---------------------------------------------------------------------------
# simulate_y_paths
# ---------------------------------------------------------------------------


def test_simulate_y_constant_at_deterministic_fixed_point():
    # b = 0, dW = 0, gamma constant: starting from x0 = a_under / a_bar the
    # recursion sits still (y0 solves the stationary implicit equation).
    model = _model(b=0.0)
    x_star = model.a_under(0.0) / model.a_bar  # 0.4921875 / 0.5
    model = _model(b=0.0, initial=InitialSegmentSpec.constant(x_star))
    grid = build_grid(model, 8)
    y = simulate_y_paths(model, grid, np.zeros(grid.n_steps), np.full(9, x_star))[:, 0]
    y0 = math.sqrt(x_star)
    assert y == pytest.approx(np.full(grid.n_nodes, y0), rel=1e-13)
    assert y[grid.node_index(grid.n_steps)] == pytest.approx(y0, rel=1e-13)


def test_simulate_y_positive_across_random_paths():
    model = _model()
    grid = build_grid(model, 8)
    inc = _increments(grid, 1000, seed=31)
    seg = np.ones(grid.n_per_delay + 1)
    y = simulate_y_paths(model, grid, inc, seg)
    assert y.shape == (grid.n_nodes, 1000)
    assert np.all(y > 0.0)


def test_residual_invariant_along_simulated_paths():
    model = _model()
    grid = build_grid(model, 16)
    inc = _increments(grid, 50, seed=13)
    seg = sample_segment(model.initial, grid, seed=13, path_index=0)
    y = simulate_y_paths(model, grid, inc, seg)
    res = _residuals(model, grid, y, inc)
    bound = 1e-10 * (1.0 + y[grid.n_per_delay + 1 :])
    assert np.all(np.abs(res) <= bound)


def test_refined_run_differs_but_keeps_its_residual_contract():
    model = _model()
    fine = build_grid(model, 16)
    coarse = build_grid(model, 8)
    inc_f = generate(fine, seed=3, path_index=0)
    inc_c = block_sum(inc_f, 2)
    y_f = simulate_y_paths(model, fine, inc_f, np.ones(17))
    y_c = simulate_y_paths(model, coarse, inc_c, np.ones(9))
    # same Brownian path, different discretisations: values differ ...
    shared_f = y_f[fine.n_per_delay + 2 * np.arange(0, coarse.n_steps + 1), 0]
    shared_c = y_c[coarse.n_per_delay :, 0]
    assert np.max(np.abs(shared_f - shared_c)) > 1e-6
    # ... but each level satisfies its own implicit equations
    for g, y, inc in ((fine, y_f, inc_f), (coarse, y_c, inc_c)):
        res = _residuals(model, g, y, inc)
        assert np.all(np.abs(res) <= 1e-10 * (1.0 + y[g.n_per_delay + 1 :]))


def test_simulate_y_reports_offending_step_on_forcing_failure():
    # Feller equality with b = 0 makes a_under identically zero.
    model = _model(b=0.0, sigma=2.0, gamma=GammaSpec.constant(1.0))
    grid = build_grid(model, 4)
    with pytest.raises(NonPositiveForcing, match="step to node 1"):
        simulate_y_paths(model, grid, np.zeros(grid.n_steps), np.ones(5))


def test_simulate_y_rejects_bad_segments_and_shapes():
    model = _model()
    grid = build_grid(model, 4)
    inc = np.zeros(grid.n_steps)
    with pytest.raises(ValueError, match="segment needs 5 node values"):
        simulate_y_paths(model, grid, inc, np.ones(7))
    with pytest.raises(NonPositiveSample):
        simulate_y_paths(model, grid, inc, np.ones(5), segment_perturbation=-2.0)


def test_segment_perturbation_shifts_the_initial_nodes():
    model = _model()
    grid = build_grid(model, 4)
    inc = np.zeros(grid.n_steps)
    base = simulate_y_paths(model, grid, inc, np.ones(5))
    bumped = simulate_y_paths(
        model, grid, inc, np.ones(5), segment_perturbation=0.21
    )
    assert bumped[0, 0] == pytest.approx(math.sqrt(1.21), rel=1e-15)
    assert np.all(bumped[: grid.n_per_delay + 1, 0] > base[: grid.n_per_delay + 1, 0])


# ---------------------------------------------------------------------------
# diffusive in-cell extension
# ---------------------------------------------------------------------------


def _reference_path(n_per_delay: int = 8, seed: int = 17):
    """(model, grid, increments, segment draw, Y column on nodes -N .. K)."""
    model = _model()
    grid = build_grid(model, n_per_delay)
    inc = generate(grid, seed=seed, path_index=0)
    seg = sample_segment(model.initial, grid, seed=seed, path_index=0)
    return model, grid, inc, seg, simulate_y_paths(model, grid, inc, seg)[:, 0]


def test_diffusive_value_reproduces_nodes_with_full_increment():
    model, grid, inc, seg, y = _reference_path()
    for k_next in (3, 11, grid.n_steps):
        t = float(grid.time(k_next))
        w = float(inc[k_next - 1])
        if t - grid.tau <= grid.t0:
            got = diffusive_value(model, grid, y, t, w, segment=seg)
        else:
            z = y[grid.node_index(k_next - grid.n_per_delay)]
            got = diffusive_value(model, grid, y, t, w, z_delay=z)
        assert got == y[grid.node_index(k_next)]


def test_diffusive_value_approaches_left_node():
    model = _model(b=0.0)
    grid = build_grid(model, 8)
    inc = generate(grid, seed=23, path_index=0)
    y = simulate_y_paths(model, grid, inc, np.ones(9))[:, 0]
    k = 5
    t = float(grid.time(k)) + 1e-8
    assert diffusive_value(model, grid, y, t, 0.0) == pytest.approx(
        y[grid.node_index(k)], rel=1e-6
    )


def test_diffusive_value_solves_the_partial_step_equation():
    model = _model(b=0.0)
    grid = build_grid(model, 8)
    fine = build_grid(model, 16)
    inc_f = generate(fine, seed=29, path_index=0)
    y = simulate_y_paths(model, grid, block_sum(inc_f, 2), np.ones(9))[:, 0]
    k = 6
    t = float(grid.time(k)) + 0.5 * grid.delta  # a node of the doubled grid
    w = float(inc_f[2 * k])
    y_star = diffusive_value(model, grid, y, t, w, fine_per_delay=16)
    dt = 0.5 * grid.delta
    defect = (
        y_star
        - y[grid.node_index(k)]
        - (model.a_under(t) / y_star - model.a_bar * y_star) * dt
        - model.sigma_bar * w
    )
    assert y_star > 0.0
    assert abs(defect) <= 1e-12 * (1.0 + y_star)


def test_diffusive_value_rejects_unresolvable_times():
    model, grid, inc, seg, y = _reference_path()
    with pytest.raises(UnresolvableTime):
        diffusive_value(model, grid, y, grid.t0, 0.0, z_delay=1.0)
    with pytest.raises(UnresolvableTime):
        diffusive_value(model, grid, y, grid.t_end + grid.delta, 0.0, z_delay=1.0)
    # off the declared fine grid
    with pytest.raises(UnresolvableTime):
        diffusive_value(
            model, grid, y, float(grid.time(3)) + grid.delta / 3.0, 0.0,
            z_delay=1.0, fine_per_delay=16,
        )
    # declared fine resolution must refine the coarse one
    with pytest.raises(UnresolvableTime):
        diffusive_value(
            model, grid, y, float(grid.time(3)), 0.0, z_delay=1.0, fine_per_delay=12
        )
    # b > 0 past the first delay window needs the delayed value
    with pytest.raises(UnresolvableTime, match="delayed value"):
        diffusive_value(model, grid, y, float(grid.time(grid.n_steps)), 0.0)


def test_diffusive_value_reads_delay_from_segment_in_first_window():
    model, grid, inc, seg, y = _reference_path()
    t = float(grid.time(2)) + 0.5 * grid.delta  # t - tau < t0
    got = diffusive_value(model, grid, y, t, 0.01, segment=seg)
    want = diffusive_value(
        model, grid, y, t, 0.01, z_delay=math.sqrt(float(seg.value_at(t - grid.tau)))
    )
    assert got == want > 0.0


# ---------------------------------------------------------------------------
# piecewise-linear interpolant in X, as the uniform error evaluates it
# ---------------------------------------------------------------------------


def _interpolant_on_fine(x_coarse: np.ndarray, r: int) -> np.ndarray:
    """The coarse interpolant at every fine node, via the weights of the error."""
    one_minus_w, w = _cell_weights(r * (x_coarse.shape[0] - 1), r)
    cell = np.arange(w.size) // r
    inner = x_coarse[cell] * one_minus_w[:, None] + x_coarse[cell + 1] * w[:, None]
    return np.concatenate([x_coarse[:1], inner])


def _errors(x_fine: np.ndarray, x_coarse: np.ndarray, r: int) -> tuple:
    """(grid, uniform) per-path maxima over fine nodes 1 .. K."""
    grid_max, uniform_max = np.zeros((2, x_fine.shape[1]))
    weights = _cell_weights(x_fine.shape[0] - 1, r)
    _fold_cell_errors(x_fine[1:], x_coarse, *weights, grid_max, uniform_max)
    return grid_max, uniform_max


def test_uniform_error_of_constant_paths_is_zero():
    x = np.square(np.ones((9, 3)))  # a constant Y path squares to constant X
    assert np.all(_interpolant_on_fine(x, 4) == 1.0)
    grid_max, uniform_max = _errors(np.ones((33, 3)), x, 4)
    assert np.all(grid_max == 0.0) and np.all(uniform_max == 0.0)


def test_square_then_interpolate_midpoint():
    # Y nodes 1, 2, 1 square to X nodes 1, 4, 1; one coarse step per two fine
    x_coarse = np.square(np.array([[1.0], [2.0], [1.0]]))
    one_minus_w, w = _cell_weights(4, 2)
    assert list(w) == [0.5, 1.0, 0.5, 1.0] and list(one_minus_w) == [0.5, 0.0, 0.5, 0.0]
    # linear in x (not in y): the midpoint of [1, 4] is 2.5 ...
    fine = np.array([[1.0], [2.5], [4.0], [2.5], [1.0]])
    assert _errors(fine, x_coarse, 2) == (0.0, 0.0)
    # ... so the square of the interpolant in y misses it by 2.5 - 1.5^2
    fine = np.square(np.array([[1.0], [1.5], [2.0], [1.5], [1.0]]))
    assert _errors(fine, x_coarse, 2) == (0.0, 0.25)


def test_interpolant_hits_nodes_and_guards_domain():
    model, grid, inc, seg, y = _reference_path(seed=41)
    x = np.square(y[grid.n_per_delay :])[:, None]  # X on nodes 0 .. K
    # fine equal to coarse on every shared node: no error at r = 1
    assert _errors(x, x, 1) == (0.0, 0.0)
    r = 4
    one_minus_w, w = _cell_weights(r * grid.n_steps, r)
    on_fine = _interpolant_on_fine(x, r)
    assert np.array_equal(on_fine[::r], x)  # the interpolant hits the nodes
    assert _errors(on_fine, x, r) == (0.0, 0.0)
    bumped = on_fine.copy()
    bumped[r * 3 + 1] += 0.5  # off a shared node: the fine maximum sees it
    grid_max, uniform_max = _errors(bumped, x, r)
    assert grid_max[0] == 0.0 and uniform_max[0] == pytest.approx(0.5, rel=1e-12)
    bumped[r * 3] += 0.5  # on a shared node: both errors see it
    grid_max, uniform_max = _errors(bumped, x, r)
    assert grid_max[0] == pytest.approx(0.5, rel=1e-12)
    # every fine node lies in a cell that ends inside the coarse path: the
    # last fine node closes the last cell with weight one
    assert w[-1] == 1.0 and np.all(w[r - 1 :: r] == 1.0)
    assert np.all((0.0 < w) & (w <= 1.0)) and np.array_equal(one_minus_w, 1.0 - w)


# ---------------------------------------------------------------------------
# truncated Euler baseline
# ---------------------------------------------------------------------------


def test_truncated_euler_fixed_point():
    model = _model(b=0.0)
    grid = build_grid(model, 8)
    x, counts = truncated_euler_paths(
        model, grid, np.zeros(grid.n_steps), sample_segment(model.initial, grid, 0, 0)
    )
    assert np.all(x[grid.n_per_delay :, 0] == 1.0)
    assert counts[0] == 0


def test_truncated_euler_one_step_arithmetic():
    model = _model(b=0.0, sigma=1.0, tau=1.0, horizon=0.1)
    grid = build_grid(model, 10)
    x, _ = truncated_euler_paths(
        model, grid, np.array([-0.5]), sample_segment(model.initial, grid, 0, 0)
    )
    # x1 = 1 + [a(gamma - 1)] * 0.1 + 1 * sqrt(1) * (-0.5) = 0.5
    assert x.shape == (grid.n_nodes, 1)
    assert x[grid.node_index(1), 0] == 0.5
    with pytest.raises(OutOfDomain):
        grid.node_index(2)


def test_truncated_euler_goes_nonpositive_where_implicit_does_not():
    model = _model(
        b=0.0, sigma=1.0, tau=1.0, horizon=1.0,
        gamma=GammaSpec.constant(0.3),
        initial=InitialSegmentSpec.constant(0.3),
    )
    grid = build_grid(model, 10)
    inc = _increments(grid, 2000, seed=2024)
    seg = np.full(grid.n_per_delay + 1, 0.3)
    _, counts = truncated_euler_paths(model, grid, inc, seg)
    assert counts.shape == (2000,)
    assert np.count_nonzero(counts) > 0
    y = simulate_y_paths(model, grid, inc, seg)
    assert np.all(y > 0.0)
    # deterministic census: identical draws give identical counts
    _, again = truncated_euler_paths(model, grid, inc, seg)
    assert np.array_equal(counts, again)


def test_truncated_euler_uses_delayed_term():
    model = _model(tau=1.0, horizon=0.1, b=0.5)
    grid = build_grid(model, 10)
    seg = np.linspace(2.0, 1.0, 11)  # x(t0 - tau) = 2 feeds the first step
    x, _ = truncated_euler_paths(model, grid, np.zeros((1, 1)), seg)
    # x1 = 1 + [a(1 - 1) + b * 2] * 0.1 = 1.1
    assert x[-1, 0] == pytest.approx(1.1, rel=1e-15)


# ---------------------------------------------------------------------------
# symmetrized Euler baseline
# ---------------------------------------------------------------------------


def test_symmetrized_euler_requires_no_delay():
    model = _model(b=0.2)
    grid = build_grid(model, 8)
    with pytest.raises(DelayNotSupported):
        symmetrized_euler_paths(model, grid, np.zeros(grid.n_steps), np.ones(9))


def test_symmetrized_euler_reflects_to_nonnegative():
    model = _model(
        b=0.0, sigma=1.0, tau=1.0, horizon=1.0,
        gamma=GammaSpec.constant(0.3),
        initial=InitialSegmentSpec.constant(0.3),
    )
    grid = build_grid(model, 10)
    inc = _increments(grid, 500, seed=8)
    x, counts = symmetrized_euler_paths(model, grid, inc, np.full(11, 0.3))
    assert np.all(x >= 0.0)
    # reflection can land on small values but the census stays tiny
    assert counts.sum() <= 5


def test_symmetrized_euler_fixed_point():
    model = _model(b=0.0)
    grid = build_grid(model, 8)
    x, counts = symmetrized_euler_paths(
        model, grid, np.zeros(grid.n_steps), sample_segment(model.initial, grid, 0, 0)
    )
    assert np.all(x[grid.n_per_delay :, 0] == 1.0)
    assert counts[0] == 0


def test_symmetrized_euler_approaches_implicit_scheme_under_refinement():
    model = _model(b=0.0, sigma=0.5, horizon=1.0)
    fine = build_grid(model, 64)
    inc_f = _increments(fine, 300, seed=11)
    dists = []
    for n in (8, 16, 32, 64):
        grid = build_grid(model, n)
        inc = block_sum(inc_f, 64 // n) if n < 64 else inc_f
        seg = np.ones(n + 1)
        x_impl = np.square(simulate_y_paths(model, grid, inc, seg)[-1])
        x_sym = symmetrized_euler_paths(model, grid, inc, seg)[0][-1]
        dists.append(float(np.mean(np.abs(x_impl - x_sym))))
    assert dists[0] > dists[1] > dists[2] > dists[3]
    assert dists[3] < 0.5 * dists[0]


# ---------------------------------------------------------------------------
# small-tau proxy
# ---------------------------------------------------------------------------


def test_proxy_requires_b_below_a():
    model = _model(b=1.0)
    grid = build_grid(model, 8)
    with pytest.raises(ProxyRequiresBLessThanA):
        small_tau_proxy_paths(model, grid, np.zeros(grid.n_steps), 1.0)


def test_proxy_with_zero_b_is_the_main_scheme():
    model = _model(b=0.0)
    grid = build_grid(model, 8)
    inc = _increments(grid, 20, seed=19)
    y = simulate_y_paths(model, grid, inc, np.ones(9))
    x_prox = small_tau_proxy_paths(model, grid, inc, 1.0)
    assert np.array_equal(x_prox, np.square(y[grid.n_per_delay :]))


def test_proxy_relaxes_to_folded_mean_level():
    # a = 1, b = 0.5, gamma = 1: effective level a gamma / (a - b) = 2.
    model = _model(b=0.5, sigma=0.02, horizon=20.0)
    grid = build_grid(model, 8)
    x = small_tau_proxy_paths(model, grid, np.zeros(grid.n_steps), 1.0)
    assert abs(x[-1, 0] - 2.0) < 1e-3


def test_proxy_error_shrinks_with_tau():
    # shared step 0.025 so only the delay horizon changes
    rng = np.random.default_rng(5)
    inc = rng.normal(0.0, math.sqrt(0.025), size=(400, 40)).T  # (steps, paths)
    dists = []
    for tau, n in ((0.2, 8), (0.1, 4), (0.05, 2)):
        model = _model(b=0.5, tau=tau, horizon=1.0)
        grid = build_grid(model, n)
        y = simulate_y_paths(model, grid, inc, np.ones(n + 1))
        x_delay = np.square(y[-1])
        x_prox = small_tau_proxy_paths(model, grid, inc, 1.0)[-1]
        dists.append(float(np.mean(np.abs(x_delay - x_prox))))
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < 0.5 * dists[0]


def test_proxy_starts_from_segment_endpoint():
    model = _model(b=0.2)
    grid = build_grid(model, 8)
    seg = sample_segment(model.initial, grid, seed=3, path_index=1)
    x = small_tau_proxy_paths(model, grid, np.zeros(grid.n_steps), seg.values[-1])
    assert x.shape == (grid.n_steps + 1, 1)
    assert x[0, 0] == pytest.approx(float(seg.values[-1]), rel=1e-15)
    assert np.all(x > 0.0)
