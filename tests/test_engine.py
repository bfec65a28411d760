"""The time-major path engine against per-path, per-step reference loops.

The references below are the straightforward forms the engine replaces:
one ``Generator(Philox(key))`` per path and stream, path-major stacking of
per-path draws, and a march that calls :func:`implicit_step` once per step on
a (paths, nodes) array.  The engine must agree with them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import ndtri

from delay_cir.experiments import _CHUNK, map_paths, positivity_census
from delay_cir.model import GammaSpec, InitialSegmentSpec, ModelSpec, build_grid
from delay_cir.noise import generate, sample_segment
from delay_cir.scheme import (
    NonPositiveForcing,
    implicit_step,
    simulate_y_paths,
    small_tau_proxy_paths,
    symmetrized_euler_paths,
    truncated_euler_paths,
)

_MASK64 = (1 << 64) - 1


def _reference_normals(seed: int, path: int, tag: int, n: int) -> np.ndarray:
    key = np.array([seed & _MASK64, ((path << 1) | tag) & _MASK64], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    draws = gen.integers(0, 1 << 53, size=n, dtype=np.int64)
    return ndtri((draws + 0.5) * 2.0**-53)


def _reference_inputs(model, grid, seed, n_paths):
    """Path-major (paths, steps) increments and (paths, N+1) segments."""
    inc = np.stack(
        [
            _reference_normals(seed, i, 0, grid.n_steps) * np.sqrt(grid.delta)
            for i in range(n_paths)
        ]
    )
    seg = np.stack(
        [sample_segment(model.initial, grid, seed, i).values for i in range(n_paths)]
    )
    return inc, seg


def _reference_march(model, grid, inc, seg):
    """Path-major drift-implicit march, one implicit_step call per step."""
    n_delay = grid.n_per_delay
    au = np.asarray(model.a_under(grid.time(np.arange(1, grid.n_steps + 1))))
    y = np.empty((inc.shape[0], n_delay + grid.n_steps + 1))
    y[:, : n_delay + 1] = np.sqrt(seg)
    for k in range(grid.n_steps):
        y[:, n_delay + k + 1] = implicit_step(
            y[:, n_delay + k],
            y[:, k + 1],
            model.sigma_bar * inc[:, k],
            au[k],
            model.a_bar,
            model.b_bar,
            grid.delta,
        )
    return y


def _reference_truncated(model, grid, inc, seg):
    n_delay = grid.n_per_delay
    gamma_left = np.asarray(model.gamma_at(grid.time(np.arange(0, grid.n_steps))))
    x = np.empty((inc.shape[0], n_delay + grid.n_steps + 1))
    x[:, : n_delay + 1] = seg
    for k in range(grid.n_steps):
        cur = x[:, n_delay + k]
        drift = model.a * (gamma_left[k] - cur) + model.b * x[:, k]
        x[:, n_delay + k + 1] = (
            cur
            + drift * grid.delta
            + model.sigma * np.sqrt(np.maximum(cur, 0.0)) * inc[:, k]
        )
    return x


def _reference_symmetrized(model, grid, inc, seg):
    n_delay = grid.n_per_delay
    gamma_left = np.asarray(model.gamma_at(grid.time(np.arange(0, grid.n_steps))))
    x = np.empty((inc.shape[0], n_delay + grid.n_steps + 1))
    x[:, : n_delay + 1] = seg
    for k in range(grid.n_steps):
        cur = x[:, n_delay + k]
        x[:, n_delay + k + 1] = np.abs(
            cur
            + model.a * (gamma_left[k] - cur) * grid.delta
            + model.sigma * np.sqrt(cur) * inc[:, k]
        )
    return x


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


def _engine_inputs(model, grid, seed, n_paths):
    paths = range(n_paths)
    inc = generate(grid, seed, paths).increments
    seg = sample_segment(model.initial, grid, seed, paths).values
    return inc, seg


def test_batched_noise_matches_per_path_generators():
    grid = build_grid(_model(), 16)
    ref = np.stack(
        [_reference_normals(5, i, 0, grid.n_steps) for i in range(3, 300)], axis=1
    ) * np.sqrt(grid.delta)
    assert np.array_equal(generate(grid, 5, range(3, 300)).increments, ref)
    assert np.array_equal(generate(grid, 5, 7).increments, ref[:, 4])
    spec = InitialSegmentSpec.lognormal(1.5, 0.4)
    levels = [
        1.5 * math.exp(0.4 * _reference_normals(5, i, 1, 1)[0]) for i in range(300)
    ]
    batch = sample_segment(spec, grid, 5, range(300))
    assert batch.values.shape == (grid.n_per_delay + 1, 300)
    assert np.array_equal(batch.values, np.tile(levels, (grid.n_per_delay + 1, 1)))
    for i in (0, 123, 299):
        single = sample_segment(spec, grid, 5, i)
        assert np.array_equal(batch.values[:, i], single.values)
        assert single.level == batch.level[i]


def test_reference_regime_march_matches_the_step_loop():
    model = _model()
    grid = build_grid(model, 32)
    inc_ref, seg_ref = _reference_inputs(model, grid, 2024, 300)
    inc, seg = _engine_inputs(model, grid, 2024, 300)
    assert np.array_equal(inc, inc_ref.T) and np.array_equal(seg, seg_ref.T)
    y = simulate_y_paths(model, grid, inc, seg)
    assert np.array_equal(y, _reference_march(model, grid, inc_ref, seg_ref).T)
    x, counts = truncated_euler_paths(model, grid, inc, seg)
    x_ref = _reference_truncated(model, grid, inc_ref, seg_ref)
    assert np.array_equal(x, x_ref.T)
    assert np.array_equal(counts, np.count_nonzero(x_ref[:, 32:] <= 0.0, axis=1))


def test_feller_boundary_march_takes_the_conjugate_branch():
    # Feller index 2 a gamma / sigma^2 = 1.39: s = y + sigma_bar dW < 0 happens
    model = _model(b=0.0, sigma=1.2)
    grid = build_grid(model, 64)
    inc_ref, seg_ref = _reference_inputs(model, grid, 2024, 400)
    inc, seg = _engine_inputs(model, grid, 2024, 400)
    y = simulate_y_paths(model, grid, inc, seg)
    y_ref = _reference_march(model, grid, inc_ref, seg_ref)
    assert np.array_equal(y, y_ref.T)
    s = y_ref[:, grid.n_per_delay : -1] + model.sigma_bar * inc_ref
    assert np.count_nonzero(s < 0.0) > 0, "the conjugate branch was never taken"
    for engine, reference in (
        (truncated_euler_paths, _reference_truncated),
        (symmetrized_euler_paths, _reference_symmetrized),
    ):
        assert np.array_equal(
            engine(model, grid, inc, seg)[0],
            reference(model, grid, inc_ref, seg_ref).T,
        )
    proxy = small_tau_proxy_paths(model, grid, inc, 1.0)
    assert np.array_equal(proxy, np.square(y[grid.n_per_delay :]))


def test_lognormal_start_march_matches_the_step_loop():
    model = _model(
        b=0.3,
        gamma=GammaSpec.sinusoid(1.0, 0.3, np.pi),
        initial=InitialSegmentSpec.lognormal(1.0, 0.3),
    )
    grid = build_grid(model, 16)
    inc_ref, seg_ref = _reference_inputs(model, grid, 77, 300)
    inc, seg = _engine_inputs(model, grid, 77, 300)
    assert np.array_equal(seg, seg_ref.T)
    assert np.array_equal(
        simulate_y_paths(model, grid, inc, seg),
        _reference_march(model, grid, inc_ref, seg_ref).T,
    )


def test_per_step_forcing_check_still_names_the_step():
    # a_under = -0.105 < 0 (sigma^2 > 4 a gamma), so the forcing check runs on
    # every step; b_bar z^2 = 0.005 does not lift c above zero at the first
    model = _model(sigma=2.2, b=0.01)
    grid = build_grid(model, 4)
    with pytest.raises(NonPositiveForcing, match="step to node 1:"):
        simulate_y_paths(model, grid, np.zeros(grid.n_steps), np.ones(5))


def test_map_paths_is_thread_and_chunk_independent():
    model = _model(initial=InitialSegmentSpec.lognormal(1.0, 0.2))
    grid = build_grid(model, 8)
    n_paths = 2 * _CHUNK + 100  # three chunks, the last one partial

    def terminal(inc, seg):
        return np.square(simulate_y_paths(model, grid, inc, seg)[[-2, -1]])

    one = map_paths(model, grid, 3, n_paths, terminal, threads=1)
    two = map_paths(model, grid, 3, n_paths, terminal, threads=2)
    assert one.shape == (2, n_paths)
    assert np.array_equal(one, two)
    inc_ref, seg_ref = _reference_inputs(model, grid, 3, n_paths)
    y_ref = _reference_march(model, grid, inc_ref, seg_ref)
    assert np.array_equal(one, np.square(y_ref[:, [-2, -1]]).T)


def test_positivity_census_shares_one_noise_draw_across_schemes():
    model = _model(b=0.0, sigma=1.2)
    grid = build_grid(model, 16)
    names = ("implicit", "truncated", "symmetrized")
    together = positivity_census(names, model, grid, 300, seed=4)
    apart = tuple(
        positivity_census((name,), model, grid, 300, seed=4)[0] for name in names
    )
    assert together == apart
    assert [row.scheme for row in together] == list(names)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_are_rejected(bad):
    model = _model(b=0.0)
    grid = build_grid(model, 4)
    inc = np.zeros((grid.n_steps, 3))
    inc[5, 1] = bad
    seg = np.ones(grid.n_per_delay + 1)
    bad_seg = seg.copy()
    bad_seg[2] = bad
    for march in (simulate_y_paths, truncated_euler_paths, symmetrized_euler_paths):
        with pytest.raises(ValueError, match="increments must be finite"):
            march(model, grid, inc, seg)
        with pytest.raises(ValueError, match="segment values must be finite"):
            march(model, grid, np.zeros(grid.n_steps), bad_seg)
    with pytest.raises(ValueError, match="segment values must be finite"):
        simulate_y_paths(
            model, grid, np.zeros(grid.n_steps), seg, segment_perturbation=bad
        )
    with pytest.raises(ValueError, match="increments must be finite"):
        small_tau_proxy_paths(model, grid, inc, 1.0)
