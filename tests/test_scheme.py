from __future__ import annotations

import math

import numpy as np
import pytest

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
    PathY,
    ProxyRequiresBLessThanA,
    UnresolvableTime,
    diffusive_value,
    implicit_residual,
    implicit_step,
    simulate_small_tau_proxy,
    simulate_symmetrized_euler,
    simulate_truncated_euler,
    simulate_y,
    simulate_y_paths,
    small_tau_proxy_paths,
    square_and_interpolate,
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
    return generate(grid, seed=seed, path_index=range(n_paths)).increments


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


# ---------------------------------------------------------------------------
# simulate_y
# ---------------------------------------------------------------------------


def test_simulate_y_constant_at_deterministic_fixed_point():
    # b = 0, dW = 0, gamma constant: starting from x0 = a_under / a_bar the
    # recursion sits still (y0 solves the stationary implicit equation).
    model = _model(b=0.0)
    x_star = model.a_under(0.0) / model.a_bar  # 0.4921875 / 0.5
    model = _model(b=0.0, initial=InitialSegmentSpec.constant(x_star))
    grid = build_grid(model, 8)
    path = simulate_y(model, grid, np.zeros(grid.n_steps), np.full(9, x_star))
    y0 = math.sqrt(x_star)
    assert path.values == pytest.approx(np.full(grid.n_nodes, y0), rel=1e-13)
    assert path.value(grid.n_steps) == pytest.approx(y0, rel=1e-13)


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
    noise = generate(fine, seed=3, path_index=0)
    inc_f = noise.increments
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
    with pytest.raises(ValueError, match="single-path"):
        simulate_y(model, grid, np.zeros((3, grid.n_steps)), np.ones(5))


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
    model = _model()
    grid = build_grid(model, n_per_delay)
    noise = generate(grid, seed=seed, path_index=0)
    seg = sample_segment(model.initial, grid, seed=seed, path_index=0)
    return model, grid, noise, seg, simulate_y(model, grid, noise.increments, seg)


def test_diffusive_value_reproduces_nodes_with_full_increment():
    model, grid, noise, seg, path = _reference_path()
    for k_next in (3, 11, grid.n_steps):
        t = float(grid.time(k_next))
        w = float(noise.increments[k_next - 1])
        if t - grid.tau <= grid.t0:
            got = diffusive_value(path, t, w, segment=seg)
        else:
            got = diffusive_value(
                path, t, w, z_delay=path.value(k_next - grid.n_per_delay)
            )
        assert got == path.value(k_next)


def test_diffusive_value_approaches_left_node():
    model = _model(b=0.0)
    grid = build_grid(model, 8)
    noise = generate(grid, seed=23, path_index=0)
    path = simulate_y(model, grid, noise.increments, np.ones(9))
    k = 5
    t = float(grid.time(k)) + 1e-8
    assert diffusive_value(path, t, 0.0) == pytest.approx(path.value(k), rel=1e-6)


def test_diffusive_value_solves_the_partial_step_equation():
    model = _model(b=0.0)
    grid = build_grid(model, 8)
    fine = build_grid(model, 16)
    noise_f = generate(fine, seed=29, path_index=0)
    inc_c = block_sum(noise_f.increments, 2)
    path = simulate_y(model, grid, inc_c, np.ones(9))
    k = 6
    t = float(grid.time(k)) + 0.5 * grid.delta  # a node of the doubled grid
    w = float(noise_f.increments[2 * k])
    y_star = diffusive_value(path, t, w, fine_per_delay=16)
    dt = 0.5 * grid.delta
    defect = (
        y_star
        - path.value(k)
        - (model.a_under(t) / y_star - model.a_bar * y_star) * dt
        - model.sigma_bar * w
    )
    assert y_star > 0.0
    assert abs(defect) <= 1e-12 * (1.0 + y_star)


def test_diffusive_value_rejects_unresolvable_times():
    model, grid, noise, seg, path = _reference_path()
    with pytest.raises(UnresolvableTime):
        diffusive_value(path, grid.t0, 0.0, z_delay=1.0)
    with pytest.raises(UnresolvableTime):
        diffusive_value(path, grid.t_end + grid.delta, 0.0, z_delay=1.0)
    # off the declared fine grid
    with pytest.raises(UnresolvableTime):
        diffusive_value(
            path, float(grid.time(3)) + grid.delta / 3.0, 0.0,
            z_delay=1.0, fine_per_delay=16,
        )
    # declared fine resolution must refine the coarse one
    with pytest.raises(UnresolvableTime):
        diffusive_value(
            path, float(grid.time(3)), 0.0, z_delay=1.0, fine_per_delay=12
        )
    # b > 0 past the first delay window needs the delayed value
    with pytest.raises(UnresolvableTime, match="delayed value"):
        diffusive_value(path, float(grid.time(grid.n_steps)), 0.0)


def test_diffusive_value_reads_delay_from_segment_in_first_window():
    model, grid, noise, seg, path = _reference_path()
    t = float(grid.time(2)) + 0.5 * grid.delta  # t - tau < t0
    got = diffusive_value(path, t, 0.01, segment=seg)
    want = diffusive_value(
        path, t, 0.01, z_delay=math.sqrt(float(seg.value_at(t - grid.tau)))
    )
    assert got == want > 0.0


# ---------------------------------------------------------------------------
# squaring and interpolation
# ---------------------------------------------------------------------------


def test_square_and_interpolate_constant_path():
    model = _model()
    grid = build_grid(model, 4)
    path = PathY(model=model, grid=grid, values=np.ones(grid.n_nodes))
    x = square_and_interpolate(path)
    assert np.all(x.values == 1.0)
    assert x.interpolate(0.33) == 1.0


def test_square_then_interpolate_midpoint():
    model = _model(tau=1.0, horizon=1.0)
    grid = build_grid(model, 2)
    y = np.array([1.0, 1.0, 1.0, 2.0, 1.0])  # nodes -2 .. 2, delta = 0.5
    x = square_and_interpolate(PathY(model=model, grid=grid, values=y))
    assert x.value(1) == 4.0
    # linear in x (not in y): midpoint of [1, 4] is 2.5
    assert x.interpolate(0.25) == 2.5
    assert x.interpolate([0.0, 0.25, 0.5]) == pytest.approx([1.0, 2.5, 4.0])


def test_interpolant_hits_nodes_and_guards_domain():
    model, grid, noise, seg, path = _reference_path(seed=41)
    x = square_and_interpolate(path)
    times = grid.times()
    assert x.interpolate(times) == pytest.approx(np.square(path.values), rel=1e-15)
    with pytest.raises(OutOfDomain):
        x.interpolate(grid.t_end + 1.0)
    with pytest.raises(OutOfDomain):
        x.interpolate(grid.t0 - grid.tau - 1.0)


# ---------------------------------------------------------------------------
# truncated Euler baseline
# ---------------------------------------------------------------------------


def test_truncated_euler_fixed_point():
    model = _model(b=0.0)
    grid = build_grid(model, 8)
    path = simulate_truncated_euler(
        model, grid, np.zeros(grid.n_steps), sample_segment(model.initial, grid, 0, 0)
    )
    assert path.scheme == "truncated"
    assert np.all(path.values == 1.0)
    assert path.nonpositive_count == 0


def test_truncated_euler_one_step_arithmetic():
    model = _model(b=0.0, sigma=1.0, tau=1.0, horizon=0.1)
    grid = build_grid(model, 10)
    path = simulate_truncated_euler(
        model, grid, np.array([-0.5]), sample_segment(model.initial, grid, 0, 0)
    )
    # x1 = 1 + [a(gamma - 1)] * 0.1 + 1 * sqrt(1) * (-0.5) = 0.5
    assert path.value(1) == 0.5
    with pytest.raises(OutOfDomain):
        path.value(2)


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
    path = simulate_symmetrized_euler(
        model, grid, np.zeros(grid.n_steps), sample_segment(model.initial, grid, 0, 0)
    )
    assert np.all(path.values == 1.0)
    assert path.nonpositive_count == 0


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


def test_proxy_single_path_wrapper_starts_from_segment_endpoint():
    model = _model(b=0.2)
    grid = build_grid(model, 8)
    seg = sample_segment(model.initial, grid, seed=3, path_index=1)
    path = simulate_small_tau_proxy(model, grid, np.zeros(grid.n_steps), seg)
    assert path.scheme == "small_tau_proxy"
    assert path.value(0) == pytest.approx(float(seg.values[-1]), rel=1e-15)
    assert path.nonpositive_count == 0
