"""The sequential loops that compute delay-known terms ahead stay bit for bit
equal to the step-by-step computations they replace.

* ``mean_delay_curve`` computes a delay's worth of Simpson integrals at once;
  the reference is the sub-step by sub-step recursion, kept here.
* ``_implicit_march`` computes the forcing and the noise of a run of steps at
  once; the reference applies :func:`implicit_step` one step at a time,
  also where s^2 overflows and the march takes a run's steps again.
  Where a_under is not positive, the march raises before any step.
* ``sample_segment`` computes the lognormal segment level, one word per
  path, by its own kernel, and one-step spans of increments are filled like
  longer ones; the reference is the first row of a longer draw.
* The explicit baselines, marched one scheme at a time over the whole
  horizon or in ring windows, write each step into its target row; the
  reference is the whole-row expression of each scheme.  The symmetrized
  rows, which hold the update before reflection, also carry the truncated
  path up to its first non-positive node.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from conftest import level_normals

from hypothesis import example, given
from hypothesis import strategies as st

from delay_cir.cir_analytics import mean_delay_curve
from delay_cir.model import (
    GammaSpec,
    InitialSegmentSpec,
    ModelSpec,
    build_grid,
    gamma_eval,
)
from delay_cir.noise import _TAG_SEGMENT, _standard_normals, generate, sample_segment
from delay_cir.scheme import (
    DelayNotSupported,
    NonPositiveForcing,
    _implicit_march,
    explicit_paths,
    implicit_step,
    simulate_y_paths,
    symmetrized_euler_paths,
    truncated_euler_paths,
)


def _model(b=0.2, gamma=None, initial=None, horizon=1.5, sigma=0.25):
    return ModelSpec(
        a=1.0,
        b=b,
        sigma=sigma,
        tau=0.5,
        t0=0.0,
        horizon=horizon,
        gamma=GammaSpec.constant(1.0) if gamma is None else gamma,
        initial=InitialSegmentSpec.constant(1.0) if initial is None else initial,
    )


# ---------------------------------------------------------------------------
# mean curve
# ---------------------------------------------------------------------------


def _scalar_mean_curve(model, grid, substeps):
    """The mean curve's recursion one Simpson sub-step at a time."""
    n_delay, n_steps = grid.n_per_delay, grid.n_steps
    h = grid.delta / substeps
    shift = n_delay * substeps
    n_sub = n_steps * substeps
    sub_times = grid.t0 + (np.arange(-shift, n_sub + 1)) * h
    a, b = model.a, model.b
    gamma_nodes = a * np.asarray(
        gamma_eval(model.gamma, sub_times[shift:], model.t0), dtype=float
    )
    gamma_mids = a * np.asarray(
        gamma_eval(model.gamma, sub_times[shift:-1] + 0.5 * h, model.t0), dtype=float
    )
    decay = math.exp(-a * h)
    decay_half = math.exp(-0.5 * a * h)
    m = np.empty(shift + n_sub + 1)
    m[: shift + 1] = model.initial.mean_at(sub_times[: shift + 1])
    for i in range(n_sub):
        j = shift + i
        f_left = gamma_nodes[i] + b * m[i]
        f_right = gamma_nodes[i + 1] + b * m[i + 1]
        if b != 0.0:
            if i >= 1:
                m_mid = (-m[i - 1] + 6.0 * m[i] + 3.0 * m[i + 1]) / 8.0
            else:
                m_mid = (3.0 * m[0] + 6.0 * m[1] - m[2]) / 8.0
            f_mid = gamma_mids[i] + b * m_mid
        else:
            f_mid = gamma_mids[i]
        m[j + 1] = decay * m[j] + (h / 6.0) * (
            decay * f_left + 4.0 * decay_half * f_mid + f_right
        )
    return m[shift::substeps]


_GAMMAS = {"constant": None, "sinusoid": GammaSpec.sinusoid(1.0, 0.3, 4.0)}
_STARTS = {
    "table": InitialSegmentSpec.table([(-0.5, 0.6), (-0.2, 1.4), (0.0, 1.1)]),
    "lognormal": InitialSegmentSpec.lognormal(1.2, 0.3),
}


@pytest.mark.parametrize("b", [0.0, 0.4])
@pytest.mark.parametrize("gamma", sorted(_GAMMAS))
@pytest.mark.parametrize("start", sorted(_STARTS))
@pytest.mark.parametrize(
    "substeps, n_per_delay, horizon",
    # 1.25 is 2.5 delays: the last run of sub-steps is half full
    [(32, 8, 1.5), (64, 4, 1.25), (640, 2, 1.25)],
    ids=["substeps-32", "substeps-64-partial-run", "substeps-640-partial-run"],
)
def test_mean_curve_equals_the_scalar_recursion(b, gamma, start, substeps, n_per_delay, horizon):
    model = _model(b=b, gamma=_GAMMAS[gamma], initial=_STARTS[start], horizon=horizon)
    grid = build_grid(model, n_per_delay)
    curve = mean_delay_curve(model, grid, substeps)
    expected = _scalar_mean_curve(model, grid, substeps)
    assert curve.means.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# implicit march
# ---------------------------------------------------------------------------


def _stepwise_march(y, inc, au, a_bar, b_bar, sigma_bar, delta, n_delay, start):
    """:func:`implicit_step` applied one step at a time on the ring ``y``;
    returns whether any step took the conjugate (s < 0) branch."""
    rows = y.shape[0]
    conjugate = False
    for k in range(inc.shape[0]):
        node = start + k
        y_prev, z, noise = y[(n_delay + node) % rows], y[(node + 1) % rows], sigma_bar * inc[k]
        conjugate |= bool(np.any(y_prev + noise < 0.0))
        y[(n_delay + node + 1) % rows] = implicit_step(
            y_prev, z, noise, au[k], a_bar, b_bar, delta
        )
    return conjugate


_A_BAR, _DELTA = 0.6, 0.05


def _march_inputs(n_delay, extra_rows, n_paths, n_steps, start, au_low, seed):
    """A random ring window, increments, target times and a_under values."""
    rng = np.random.default_rng(seed)
    window = rng.uniform(0.05, 1.5, size=(n_delay + extra_rows, n_paths))
    inc = rng.standard_normal((n_steps, n_paths)) * math.sqrt(_DELTA)
    t_next = (start + 1 + np.arange(n_steps)) * _DELTA
    au = rng.uniform(au_low, 1.0, size=n_steps)
    return window, inc, t_next, au


def _march_both(n_delay, extra_rows, n_paths, n_steps, start, b_bar, sigma_bar, seed):
    """Both marches on the same random ring window, with a_under > 0: the
    window of each, and whether any step took the conjugate branch."""
    window, inc, t_next, au = _march_inputs(
        n_delay, extra_rows, n_paths, n_steps, start, 0.01, seed
    )
    ours = window.copy()
    _implicit_march(ours, inc, t_next, au, _A_BAR, b_bar, sigma_bar, _DELTA, n_delay, start)
    expected = window.copy()
    conjugate = _stepwise_march(
        expected, inc, au, _A_BAR, b_bar, sigma_bar, _DELTA, n_delay, start
    )
    return ours, expected, conjugate


# sigma_bar dW of about 1e155 within one delay: s^2 overflows on many steps
# with s > 0, whose roots implicit_step finds by rescaling, so the runs that
# end on inf are marched again; the rows stay finite
@example(
    n_delay=40, extra_rows=5, n_paths=4, n_steps=40, start=7, b_bar=0.0, sigma_bar=1e155, seed=7
)
@example(
    n_delay=40, extra_rows=1, n_paths=4, n_steps=40, start=0, b_bar=0.8, sigma_bar=1e155, seed=7
)
@given(
    n_delay=st.integers(1, 48),
    extra_rows=st.integers(1, 12),
    n_paths=st.integers(1, 4),
    n_steps=st.integers(0, 120),
    start=st.integers(0, 60),
    b_bar=st.sampled_from([0.0, 0.05, 0.8]),
    sigma_bar=st.sampled_from([0.1, 2.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_march_equals_implicit_step_applied_step_by_step(
    n_delay, extra_rows, n_paths, n_steps, start, b_bar, sigma_bar, seed
):
    with np.errstate(over="ignore"):
        ours, expected, _ = _march_both(
            n_delay, extra_rows, n_paths, n_steps, start, b_bar, sigma_bar, seed
        )
    assert ours.tobytes() == expected.tobytes()


def test_march_equals_implicit_step_where_the_root_overflows():
    # A model just inside the domain, sigma^2 < 4 a gamma: s > 0 squares
    # past the float range on 605 of 2000 paths, where implicit_step's root
    # is finite (X = Y^2 too on 599) and the march used to give inf.  On 125
    # other paths s^2 is finite but s^2 + 4 delta (1 + a_bar delta) c is
    # not; both used to give inf there where s > 0 (99 paths) and 0 where
    # s < 0.  Every root is finite and positive, and so is X on those 125.
    model = ModelSpec(
        a=1.0, b=0.0, sigma=1.3e154, tau=4.0, t0=0.0, horizon=4.0,
        gamma=GammaSpec.constant(4.4e307), initial=InitialSegmentSpec.constant(4.4e307),
    )
    grid = build_grid(model, 1)
    paths = range(2000)
    inc = generate(grid, 7, paths)
    seg = sample_segment(model.initial, grid, 7, paths)
    with np.errstate(over="ignore"):
        y = simulate_y_paths(model, grid, inc, seg)
        expected = y.copy()
        _stepwise_march(
            expected, inc, np.asarray(model.a_under(grid.time([1]))), model.a_bar,
            model.b_bar, model.sigma_bar, grid.delta, grid.n_per_delay, 0,
        )
        s = np.sqrt(seg[-1]) + model.sigma_bar * inc[0]
        overflowed = np.isinf(s * s) & (s > 0.0)
        q = 4.0 * grid.delta * (1.0 + model.a_bar * grid.delta) * model.a_under(grid.time(1))
        sum_overflowed = np.isfinite(s * s) & np.isinf(s * s + q)
        x = np.square(y[-1])
    assert y.tobytes() == expected.tobytes()
    assert np.count_nonzero(overflowed) == 605
    assert np.count_nonzero(sum_overflowed) == 125
    assert np.count_nonzero(sum_overflowed & (s > 0.0)) == 99
    assert np.all(np.isfinite(y[-1])) and np.all(y[-1] > 0.0)
    assert np.count_nonzero(np.isfinite(x[overflowed])) == 599
    assert np.all(np.isfinite(x[sum_overflowed]))


def test_march_equals_implicit_step_where_the_forcing_term_overflows():
    # b 1e5 and a lognormal(3.2e301, 2.0) start: path 184's level 3.28e303
    # makes c = a_under + b_bar X0 = 1.64e308 at the first step of the N = 2
    # lane (delta 0.25), whose q = 4 delta (1 + a_bar delta) c overflows
    # though the root, about sqrt(c delta / (1 + a_bar delta)) = 6.0e153,
    # is finite; implicit_step used to return inf there
    model = _model(b=1e5, horizon=0.5, initial=InitialSegmentSpec.lognormal(3.2e301, 2.0))
    grid = build_grid(model, 2)
    paths = range(184, 185)
    inc = generate(grid, 16, paths)
    seg = sample_segment(model.initial, grid, 16, paths)
    c = float(model.a_under(grid.time(1))) + model.b_bar * float(seg[0, 0])
    with np.errstate(over="ignore"):
        assert math.isinf(4.0 * grid.delta * (1.0 + model.a_bar * grid.delta) * c)
        y = simulate_y_paths(model, grid, inc, seg)
    expected = y.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _stepwise_march(
            expected, inc, np.asarray(model.a_under(grid.time([1, 2]))), model.a_bar,
            model.b_bar, model.sigma_bar, grid.delta, grid.n_per_delay, 0,
        )
    assert y.tobytes() == expected.tobytes()
    assert 5e153 < y[grid.n_per_delay + 1, 0] < 7e153
    assert np.all(np.isfinite(np.square(y))) and np.all(y > 0.0)


@pytest.mark.parametrize(
    "n_delay, extra_rows, n_steps, start, b_bar, sigma_bar, fails",
    [
        # ring of 45 rows that wraps, from node 7, several runs shorter than N
        (40, 5, 100, 7, 0.8, 0.1, False),
        # N below the run length: runs of N steps, 30 times over
        (3, 2, 90, 11, 0.05, 0.1, False),
        # deep noise: steps take the conjugate branch
        (8, 3, 60, 0, 0.8, 2.5, False),
        (8, 3, 60, 5, 0.0, 2.5, False),
        # a_under below zero at some step: raised before any step
        (40, 2, 100, 3, 0.05, 0.1, True),
        (6, 1, 50, 0, 0.0, 0.1, True),
    ],
    ids=["wrap-start", "short-delay", "conjugate", "conjugate-b0", "fails", "fails-b0"],
)
def test_march_cases_are_reached(n_delay, extra_rows, n_steps, start, b_bar, sigma_bar, fails):
    if not fails:
        ours, expected, conjugate = _march_both(
            n_delay, extra_rows, 3, n_steps, start, b_bar, sigma_bar, seed=5
        )
        assert ours.tobytes() == expected.tobytes()
        assert conjugate == (sigma_bar > 1.0)
        return
    # a_under below zero at some step: the march checks a_under once, before
    # any step, names the first such node and its time, and writes no row
    window, inc, t_next, au = _march_inputs(n_delay, extra_rows, 3, n_steps, start, -0.3, 5)
    first = int(np.flatnonzero(au <= 0.0)[0])
    ours = window.copy()
    with pytest.raises(NonPositiveForcing) as info:
        _implicit_march(ours, inc, t_next, au, _A_BAR, b_bar, sigma_bar, _DELTA, n_delay, start)
    assert (info.value.node, info.value.t) == (start + first + 1, (start + first + 1) * _DELTA)
    assert str(info.value).startswith(f"step to node {start + first + 1}: a_under must be")
    assert ours.tobytes() == window.tobytes()


def test_conjugate_steps_whose_square_overflows_keep_the_root_of_implicit_step():
    # sigma_bar dW of about 1e154 .. 1e155 on a model just inside the domain:
    # s^2 overflows on 383 paths with s < 0, whose root 2.2e147 .. 5.2e147
    # implicit_step finds by rescaling, not Y = 0, and on the paths with
    # s > 0, whose root is about s
    a, sigma = 1e-108, 1e100
    model = ModelSpec(
        a=a, b=0.0, sigma=sigma, tau=1e109, t0=0.0, horizon=1e109,
        gamma=GammaSpec.constant(sigma**2 * (1.0 + 1e-6) / (4.0 * a)),
        initial=InitialSegmentSpec.constant(1.0),
    )
    grid = build_grid(model, 1)
    paths = range(2000)
    inc = generate(grid, 7, paths)
    seg = sample_segment(model.initial, grid, 7, paths)
    noise = model.sigma_bar * inc[0]
    s = 1.0 + noise
    with np.errstate(over="ignore"):
        y = simulate_y_paths(model, grid, inc, seg)[-1]
        huge = np.isinf(s * s)
    assert np.count_nonzero(huge & (s < 0.0)) == 383
    expected = implicit_step(
        np.ones_like(s), 0.0, noise, float(model.a_under(grid.time(1))),
        model.a_bar, model.b_bar, grid.delta,
    )
    assert np.count_nonzero(huge & (s > 0.0)) > 0
    assert y.tobytes() == expected.tobytes()
    assert np.all(np.isfinite(y)) and np.all(y > 0.0)


# ---------------------------------------------------------------------------
# one-word draws
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("paths", [range(0, 1), range(3, 700)], ids=["one", "many"])
def test_one_word_draws_equal_rows_of_longer_draws(paths):
    grid = build_grid(_model(), 8)
    whole = generate(grid, 11, paths)
    for k in (0, 4, 8, 5):
        assert generate(grid, 11, paths, k, k + 1).tobytes() == whole[k : k + 1].tobytes()
    level = level_normals(11, paths)
    assert level.tobytes() == _standard_normals(11, paths, _TAG_SEGMENT, 3)[0].tobytes()


def test_lognormal_levels_come_from_the_first_segment_word():
    model = _model(initial=InitialSegmentSpec.lognormal(1.2, 0.3))
    grid = build_grid(model, 8)
    draw = sample_segment(model.initial, grid, 11, range(500))
    z = _standard_normals(11, range(500), _TAG_SEGMENT, 2)[0]
    expected = np.array([1.2 * math.exp(0.3 * zj) for zj in z.tolist()])
    assert draw[0].tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# explicit baselines
# ---------------------------------------------------------------------------


def _whole_row_baseline(model, grid, inc, seg, name):
    """One baseline by its whole-row expression, step by step: X on nodes
    -N .. K, shape (N + K + 1, paths), and the per-path count of nodes
    k >= 0 with x_k <= 0."""
    n, delta = grid.n_per_delay, grid.delta
    gamma = np.asarray(model.gamma_at(grid.time(np.arange(grid.n_steps))), dtype=float)
    x = np.empty((n + grid.n_steps + 1, seg.shape[1]))
    x[: n + 1] = seg
    for k in range(grid.n_steps):
        cur, delayed, g, dw = x[n + k], x[k], gamma[k], inc[k]
        if name == "truncated":
            drift = model.a * (g - cur) + model.b * delayed
            x[n + k + 1] = cur + drift * delta + model.sigma * np.sqrt(np.maximum(cur, 0.0)) * dw
        else:
            x[n + k + 1] = np.abs(
                cur + model.a * (g - cur) * delta + model.sigma * np.sqrt(cur) * dw
            )
    return x, np.count_nonzero(x[n:] <= 0.0, axis=0)


def _baseline_inputs(model, n_per_delay, n_paths=200, seed=3):
    grid = build_grid(model, n_per_delay)
    inc = generate(grid, seed, range(n_paths))
    seg = sample_segment(model.initial, grid, seed, range(n_paths))
    return grid, inc, seg


def test_explicit_baselines_equal_the_whole_row_expressions():
    model = _model(b=0.3, sigma=1.2, gamma=_GAMMAS["sinusoid"], initial=_STARTS["lognormal"])
    grid, inc, seg = _baseline_inputs(model, 16)
    x, count = truncated_euler_paths(model, grid, inc, seg)
    expected, expected_count = _whole_row_baseline(model, grid, inc, seg, "truncated")
    assert x.tobytes() == expected.tobytes()
    assert np.array_equal(count, expected_count)
    assert np.any(count > 0)
    classical = _model(b=0.0, sigma=1.2, gamma=_GAMMAS["sinusoid"], initial=_STARTS["lognormal"])
    x, count = symmetrized_euler_paths(classical, grid, inc, seg)
    expected, expected_count = _whole_row_baseline(classical, grid, inc, seg, "symmetrized")
    assert x.tobytes() == expected.tobytes()
    assert np.array_equal(count, expected_count)


def _ring_nodes(model, grid, inc, seg, scheme, block):
    """The rows of nodes 1 .. K that a march of ``scheme`` in blocks of
    ``block`` steps writes into a ring window of N + 1 + block rows, or over
    the whole horizon without a window (``block`` None)."""
    n = grid.n_per_delay
    if block is None:
        return explicit_paths(model, grid, inc, seg, scheme)[n + 1 :]
    rows = n + 1 + block
    window = np.empty((rows, inc.shape[1]))
    nodes = np.empty_like(inc)
    for k0 in range(0, grid.n_steps, block):
        k1 = min(k0 + block, grid.n_steps)
        marched = explicit_paths(model, grid, inc[k0:k1], seg, scheme, window=window, start=k0)
        assert marched is window
        for j in range(k0 + 1, k1 + 1):
            nodes[j - 1] = window[(j + n) % rows]
    return nodes


# 48 steps: blocks of 20 leave a last block of 8, blocks of 1 use the
# smallest ring that a block fits in, and one block of 48 holds the horizon
BLOCKS = pytest.mark.parametrize("block", [None, 20, 1, 48], ids=["whole", "20", "1", "48"])


@pytest.mark.parametrize("b", [0.0, 0.3], ids=["b0", "b"])
@BLOCKS
def test_truncated_march_equals_the_whole_row_loop(b, block):
    # with b = 0 the march skips the delayed term, with b = 0.3 it adds it
    model = _model(b=b, sigma=1.2, gamma=_GAMMAS["sinusoid"], initial=_STARTS["lognormal"])
    grid, inc, seg = _baseline_inputs(model, 16)
    nodes = _ring_nodes(model, grid, inc, seg, "truncated", block)
    expected, expected_count = _whole_row_baseline(model, grid, inc, seg, "truncated")
    assert nodes.tobytes() == expected[grid.n_per_delay + 1 :].tobytes()
    # node 0 is the segment's last value, positive
    count = np.count_nonzero(nodes <= 0.0, axis=0)
    assert np.array_equal(count, expected_count) and np.any(count > 0)


@BLOCKS
def test_symmetrized_row_carries_both_baselines(block):
    # The symmetrized rows hold the update v before reflection: |v| is the
    # symmetrized path, and v is the truncated path up to and including each
    # path's first v <= 0, the node where the two schemes part.
    model = _model(b=0.0, sigma=1.2, gamma=_GAMMAS["sinusoid"], initial=_STARTS["lognormal"])
    grid, inc, seg = _baseline_inputs(model, 16)
    v = _ring_nodes(model, grid, inc, seg, "symmetrized", block)
    n = grid.n_per_delay
    symmetrized, symmetrized_count = _whole_row_baseline(model, grid, inc, seg, "symmetrized")
    assert np.abs(v).tobytes() == symmetrized[n + 1 :].tobytes()
    assert np.array_equal(np.count_nonzero(v == 0.0, axis=0), symmetrized_count)
    truncated, truncated_count = _whole_row_baseline(model, grid, inc, seg, "truncated")
    crossed = v <= 0.0
    assert np.array_equal(crossed.any(axis=0), truncated_count > 0)
    assert 0 < np.count_nonzero(truncated_count) < v.shape[1]
    for path in range(v.shape[1]):
        last = int(np.argmax(crossed[:, path])) if crossed[:, path].any() else len(v) - 1
        assert v[: last + 1, path].tobytes() == truncated[n + 1 : n + last + 2, path].tobytes()


def test_explicit_march_checks_schemes_windows_and_steps():
    model = _model(b=0.3)
    grid, inc, seg = _baseline_inputs(model, 4, n_paths=3)
    with pytest.raises(DelayNotSupported, match="defined for b = 0 only"):
        explicit_paths(model, grid, inc, seg, "symmetrized")
    with pytest.raises(ValueError, match="unknown scheme 'milstein'"):
        explicit_paths(model, grid, inc, seg, "milstein")
    with pytest.raises(ValueError, match=r"cannot hold 5 nodes of 3 paths"):
        explicit_paths(model, grid, inc[:2], seg, "truncated", window=np.empty((4, 3)))
    with pytest.raises(ValueError, match="cannot hold"):
        explicit_paths(model, grid, inc[:2], seg, "truncated", window=np.empty((9, 2)))
    with pytest.raises(ValueError, match="not on the grid"):
        explicit_paths(
            model, grid, inc[:2], seg, "truncated", window=np.empty((9, 3)),
            start=grid.n_steps - 1,
        )
