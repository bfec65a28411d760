from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from delay_cir.experiments import _cell_weights, _fold_cell_errors
from delay_cir.model import (
    GammaSpec,
    InitialSegmentSpec,
    ModelSpec,
    build_grid,
)
from delay_cir.noise import NonPositiveSample, block_sum, generate, sample_segment
from delay_cir.scheme import (
    DelayNotSupported,
    NonPositiveForcing,
    check_baselines,
    check_implicit,
    implicit_residual,
    implicit_step,
    ring_spans,
    simulate_y_paths,
    square_rows,
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


def test_step_root_where_the_forcing_term_overflows():
    # q = 4 delta (1 + a_bar delta) c overflows for c = 1.64e308 though the
    # root sqrt(c delta / (1 + a_bar delta)) is about 6.0e153; no overflow
    # warning leaks from the rescaled discriminant
    c = 1.64e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = implicit_step(1.0, math.sqrt(c / 5e4), 0.0, 0.375, 0.5, 5e4, 0.25)
    assert y == pytest.approx(math.sqrt(c * 0.25 / 1.125), rel=1e-12)
    assert 0.0 < y < math.inf


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
    assert y.shape == (grid.n_per_delay + grid.n_steps + 1,)
    assert y == pytest.approx(np.full(y.shape, y0), rel=1e-13)
    assert y[grid.n_steps + grid.n_per_delay] == pytest.approx(y0, rel=1e-13)


def test_simulate_y_positive_across_random_paths():
    model = _model()
    grid = build_grid(model, 8)
    inc = _increments(grid, 1000, seed=31)
    seg = np.ones(grid.n_per_delay + 1)
    y = simulate_y_paths(model, grid, inc, seg)
    assert y.shape == (grid.n_per_delay + grid.n_steps + 1, 1000)
    assert np.all(y > 0.0)


def test_residual_invariant_along_simulated_paths():
    model = _model()
    grid = build_grid(model, 16)
    inc = _increments(grid, 50, seed=13)
    seg = sample_segment(model.initial, grid, seed=13, path_index=range(1))
    y = simulate_y_paths(model, grid, inc, seg)
    res = _residuals(model, grid, y, inc)
    bound = 1e-10 * (1.0 + y[grid.n_per_delay + 1 :])
    assert np.all(np.abs(res) <= bound)


def test_refined_run_differs_but_keeps_its_residual_contract():
    model = _model()
    fine = build_grid(model, 16)
    coarse = build_grid(model, 8)
    inc_f = generate(fine, seed=3, path_index=range(1))
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
    with pytest.raises(NonPositiveForcing) as info:
        simulate_y_paths(model, grid, np.zeros(grid.n_steps), np.ones(5))
    assert (info.value.node, info.value.t) == (1, 0.125)
    assert str(info.value) == "step to node 1: a_under must be positive (t = 0.125)"
    with pytest.raises(NonPositiveForcing, match="needs sigma"):
        check_implicit(model)
    # gamma = 1.13 - 0.2 t falls below sigma^2 / (4 a) = 1 after t = 0.65:
    # the march names the first node after it, and a window march from a
    # later node its own first step
    falling = _model(sigma=2.0, gamma=GammaSpec.affine(1.13, -0.2))
    with pytest.raises(NonPositiveForcing, match=r"^step to node 6: .* \(t = 0.75\)$"):
        simulate_y_paths(falling, grid, np.zeros(grid.n_steps), np.ones(5))
    window = np.ones((9, 1))
    with pytest.raises(NonPositiveForcing, match=r"^step to node 9: .* \(t = 1.125\)$"):
        simulate_y_paths(falling, grid, np.zeros(2), None, window=window, start=8)
    assert np.all(window == 1.0)


def test_check_implicit_takes_the_infimum_over_the_horizon_not_the_grid():
    # gamma = 1 + 0.5 sin(omega t) has its trough 0.5 at t = 1.3, between the
    # nodes 1.25 and 1.375 of N = 4: every node's a_under is positive at
    # sigma^2 = 2.0164, but 4 a inf(gamma) = 2 is not above it
    trough = GammaSpec.sinusoid(1.0, 0.5, 1.5 * math.pi / 1.3)
    model = _model(sigma=1.42, gamma=trough)
    grid = build_grid(model, 4)
    assert np.all(model.a_under(grid.times()) > 0.0)
    simulate_y_paths(model, grid, np.zeros(grid.n_steps), np.ones(5))
    with pytest.raises(NonPositiveForcing) as info:
        check_implicit(model)
    assert str(info.value) == "the implicit scheme needs sigma^2 < 4 a inf(gamma) = 2.0, got 2.0164"
    check_implicit(_model(sigma=1.41, gamma=trough))


def test_simulate_y_rejects_bad_segments_and_shapes():
    model = _model()
    grid = build_grid(model, 4)
    inc = np.zeros(grid.n_steps)
    with pytest.raises(ValueError, match="segment needs 5 node values"):
        simulate_y_paths(model, grid, inc, np.ones(7))
    with pytest.raises(NonPositiveSample):
        simulate_y_paths(model, grid, inc, np.array([1.0, 1.0, -1.0, 1.0, 1.0]))


def test_simulate_y_starts_from_the_square_roots_of_each_paths_segment():
    model = _model()
    grid = build_grid(model, 4)
    seg = np.array([[1.0, 1.21], [0.8, 1.3], [1.1, 0.9], [1.0, 2.0], [0.5, 1.21]])
    y = simulate_y_paths(model, grid, np.zeros((grid.n_steps, 2)), seg)
    assert np.array_equal(y[: grid.n_per_delay + 1], np.sqrt(seg))


def test_a_raised_segment_raises_every_later_node():
    # the implicit step is increasing in y_k and in the delayed value
    model = _model()
    grid = build_grid(model, 4)
    inc = np.zeros(grid.n_steps)
    base = simulate_y_paths(model, grid, inc, np.ones(5))[:, 0]
    raised = simulate_y_paths(model, grid, inc, np.full(5, 1.21))[:, 0]
    assert raised[0] == pytest.approx(1.1, rel=1e-15)
    assert np.all(raised > base)


@pytest.mark.parametrize("b", [0.2, 0.0])
def test_first_window_steps_read_the_delayed_node_from_the_segment(b):
    # the step to node m reads node m - N: with N = 4, segment node -2 (row
    # 2) enters first at node 2, and not at all when b = 0
    model = _model(b=b)
    grid = build_grid(model, 4)
    inc = generate(grid, seed=41, path_index=range(1))
    seg = np.ones(5)
    bumped = seg.copy()
    bumped[2] = 1.5
    y = simulate_y_paths(model, grid, inc, seg)[:, 0]
    y_b = simulate_y_paths(model, grid, inc, bumped)[:, 0]
    node = grid.n_per_delay  # row of node 0
    assert np.array_equal(y_b[node : node + 2], y[node : node + 2])
    if b:
        assert y_b[node + 2] > y[node + 2]
    else:
        assert np.array_equal(y_b[node:], y[node:])


@pytest.mark.parametrize(
    "gamma",
    [GammaSpec.constant(1.0), GammaSpec.affine(1.0, 0.37), GammaSpec.sinusoid(1.0, 0.3, 7.7)],
    ids=["constant", "affine", "sinusoid"],
)
def test_coefficients_of_a_window_have_the_bits_of_the_whole_grid(gamma):
    # A window march evaluates a_under at t_{k+1} and gamma at t_k over its
    # own steps only; SIMD loops could round a vector body and its scalar
    # tail apart, so slices start off a multiple of 8 and end short.
    model = _model(gamma=gamma, horizon=3.0, t0=0.125)
    grid = build_grid(model, 1024)
    k = grid.n_steps
    a_under = np.asarray(model.a_under(grid.time(np.arange(1, k + 1))), dtype=float)
    gamma_left = np.asarray(model.gamma_at(grid.time(np.arange(k))), dtype=float)
    starts = [0, 1, 3, 5, 13, 37, 1021, 1364, k - 9, k - 2, k - 1]
    for start in starts:
        for stop in {start + 1, start + 2, start + 7, start + 1364, k}:
            stop = min(stop, k)
            got_a = model.a_under(grid.time(np.arange(start + 1, stop + 1)))
            got_g = model.gamma_at(grid.time(np.arange(start, stop)))
            assert np.asarray(got_a, dtype=float).tobytes() == a_under[start:stop].tobytes()
            assert np.asarray(got_g, dtype=float).tobytes() == gamma_left[start:stop].tobytes()


# ---------------------------------------------------------------------------
# ring windows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "length, first, count, head, tail",
    [
        (8, 2, 3, (2, 5), (0, 0)),
        (8, 6, 4, (6, 8), (0, 2)),
        (8, 11, 3, (3, 6), (0, 0)),
        (8, 0, 8, (0, 8), (0, 0)),
    ],
    ids=["inside", "wraps", "first-past-the-end", "whole-window"],
)
def test_ring_spans_cover_the_rows_modulo_the_length(length, first, count, head, tail):
    got_head, got_tail = ring_spans(length, first, count)
    assert (got_head.start, got_head.stop) == head
    assert (got_tail.start, got_tail.stop) == tail
    rows = np.arange(length)
    want = np.arange(first, first + count) % length
    assert np.array_equal(np.concatenate([rows[got_head], rows[got_tail]]), want)


def test_square_rows_reads_a_wrapped_ring():
    window = np.arange(10, dtype=float).reshape(5, 2)
    out = np.full((6, 2), np.nan)
    got = square_rows(window, 3, 4, out)
    assert np.shares_memory(got, out)
    assert np.array_equal(got, np.square(window[[3, 4, 0, 1]]))
    assert np.all(np.isnan(out[4:]))


# ---------------------------------------------------------------------------
# piecewise-linear interpolant in X, as the uniform error evaluates it
# ---------------------------------------------------------------------------


def _reference_path(n_per_delay: int = 8, seed: int = 17):
    """(model, grid, increments, segment X values, Y column on nodes -N .. K)."""
    model = _model()
    grid = build_grid(model, n_per_delay)
    inc = generate(grid, seed=seed, path_index=range(1))
    seg = sample_segment(model.initial, grid, seed=seed, path_index=range(1))
    return model, grid, inc, seg, simulate_y_paths(model, grid, inc, seg)[:, 0]


def _interpolant_on_fine(x_coarse: np.ndarray, r: int) -> np.ndarray:
    """The coarse interpolant at every fine node, via the weights of the error."""
    one_minus_w, w = _cell_weights(r * (x_coarse.shape[0] - 1), r).T
    cell = np.arange(w.size) // r
    inner = x_coarse[cell] * one_minus_w[:, None] + x_coarse[cell + 1] * w[:, None]
    return np.concatenate([x_coarse[:1], inner])


def _errors(x_fine: np.ndarray, x_coarse: np.ndarray, r: int) -> tuple:
    """(grid, uniform) per-path maxima over fine nodes 1 .. K."""
    grid_max, uniform_max = np.zeros((2, x_fine.shape[1]))
    weights = _cell_weights(x_fine.shape[0] - 1, r)
    _fold_cell_errors(x_fine[1:], x_coarse, weights, grid_max, uniform_max)
    return grid_max, uniform_max


def test_uniform_error_of_constant_paths_is_zero():
    x = np.square(np.ones((9, 3)))  # a constant Y path squares to constant X
    assert np.all(_interpolant_on_fine(x, 4) == 1.0)
    grid_max, uniform_max = _errors(np.ones((33, 3)), x, 4)
    assert np.all(grid_max == 0.0) and np.all(uniform_max == 0.0)


def test_square_then_interpolate_midpoint():
    # Y nodes 1, 2, 1 square to X nodes 1, 4, 1; one coarse step per two fine
    x_coarse = np.square(np.array([[1.0], [2.0], [1.0]]))
    one_minus_w, w = _cell_weights(4, 2).T
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
    one_minus_w, w = _cell_weights(r * grid.n_steps, r).T
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
        model, grid, np.zeros(grid.n_steps), sample_segment(model.initial, grid, 0, range(1))
    )
    assert np.all(x[grid.n_per_delay :, 0] == 1.0)
    assert counts[0] == 0


def test_truncated_euler_one_step_arithmetic():
    model = _model(b=0.0, sigma=1.0, tau=1.0, horizon=0.1)
    grid = build_grid(model, 10)
    x, _ = truncated_euler_paths(
        model, grid, np.array([-0.5]), sample_segment(model.initial, grid, 0, range(1))
    )
    # x1 = 1 + [a(gamma - 1)] * 0.1 + 1 * sqrt(1) * (-0.5) = 0.5
    assert x.shape == (grid.n_per_delay + grid.n_steps + 1, 1)
    assert x[1 + grid.n_per_delay, 0] == 0.5


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


def test_check_baselines_names_the_unknown_scheme_and_the_delayed_symmetrized():
    delayed, undelayed = _model(), _model(b=0.0)
    check_baselines(("truncated", "symmetrized"), undelayed)
    check_baselines(("truncated",), delayed)
    with pytest.raises(ValueError, match="unknown scheme 'explicit'"):
        check_baselines(("truncated", "explicit"), undelayed)
    with pytest.raises(DelayNotSupported):
        check_baselines(("symmetrized",), delayed)


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
        model, grid, np.zeros(grid.n_steps), sample_segment(model.initial, grid, 0, range(1))
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

