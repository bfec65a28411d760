"""The strong-error study's spans against whole-path marches.

``strong_error_study`` never holds a reference path whole: it draws, marches
and reduces each chunk in spans of fine steps, here two or more (the
``walk_in_spans`` fixture cuts the walk budget down).  The reference below is the
whole-path reduction it replaced, kept here verbatim in substance: the fine
path and every coarse path are marched over the whole horizon, and the
uniform error gathers the coarse interpolant at every fine node.  The blocked
study must give the same per-path error matrix, bit for bit.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest
from conftest import one_lane_plan

from delay_cir import experiments
from delay_cir.model import GammaSpec, InitialSegmentSpec, ModelSpec, build_grid
from delay_cir.noise import block_sum, generate, sample_segment
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


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


# ---------------------------------------------------------------------------
# window marches
# ---------------------------------------------------------------------------


def test_window_march_continues_the_whole_march():
    model = _model(
        b=0.3,
        gamma=GammaSpec.sinusoid(1.0, 0.3, np.pi),
        initial=InitialSegmentSpec.lognormal(1.0, 0.3),
    )
    grid = build_grid(model, 8)  # 24 steps
    paths = range(40)
    inc = generate(grid, 3, paths)
    seg = sample_segment(model.initial, grid, 3, paths)
    whole = simulate_y_paths(model, grid, inc, seg)
    # a window of N + 1 + 5 rows; blocks of up to 5 steps, one of a single step
    window = np.empty((grid.n_per_delay + 1 + 5, len(paths)))
    start = 0
    for steps in (5, 3, 5, 1, 4, 5, 1):
        got = simulate_y_paths(
            model, grid, inc[start : start + steps], seg, window=window, start=start
        )
        assert got is window
        for node in range(start - grid.n_per_delay, start + steps + 1):
            row = (node + grid.n_per_delay) % window.shape[0]
            assert np.array_equal(_bits(window[row]), _bits(whole[node + grid.n_per_delay]))
        start += steps
    assert start == grid.n_steps


def test_window_march_rejects_short_windows_and_steps_off_the_grid():
    model = _model()
    grid = build_grid(model, 4)  # 12 steps
    inc = np.zeros((4, 3))
    seg = np.ones(5)
    with pytest.raises(ValueError, match="cannot hold 5 nodes"):
        simulate_y_paths(model, grid, inc, seg, window=np.empty((4, 3)))
    with pytest.raises(ValueError, match="cannot hold 5 nodes"):
        simulate_y_paths(model, grid, inc, seg, window=np.empty((9, 2)))
    with pytest.raises(ValueError, match="not on the grid"):
        simulate_y_paths(model, grid, inc, seg, window=np.empty((9, 3)), start=10)
    # without a window a march covers the whole horizon from node 0
    with pytest.raises(ValueError, match="not on the grid"):
        simulate_y_paths(model, grid, np.zeros((12, 3)), seg, start=1)
    with pytest.raises(ValueError, match="expected 12 increments"):
        simulate_y_paths(model, grid, inc, seg)


# ---------------------------------------------------------------------------
# the study against the whole-path reduction
# ---------------------------------------------------------------------------


def _coarse_on_fine_weights(n_fine_steps: int, r: int):
    idx = np.arange(n_fine_steps + 1)
    base = np.minimum(idx // r, n_fine_steps // r - 1)
    frac = idx / r - base
    return base, frac


def _uniform_error(x_fine, x_coarse, base, frac, out):
    out[...] = 0.0
    for lo in range(0, base.size, 64):
        rows = slice(lo, lo + 64)
        b, w = base[rows], frac[rows, None]
        on_fine = x_coarse[b] * (1.0 - w) + x_coarse[b + 1] * w
        np.maximum(out, np.abs(x_fine[rows] - on_fine).max(axis=0), out=out)


def _whole_path_errors(model, n_list, n_ref, n_paths, seed):
    """Per-path error matrix: rows 2i, 2i+1 hold level n_list[i]'s grid and
    uniform errors, from whole-path marches."""
    fine_grid = build_grid(model, n_ref)
    offset_fine = fine_grid.n_per_delay

    def errors(draw, seg):
        inc_fine = draw()
        y_ref = simulate_y_paths(model, fine_grid, inc_fine, seg)
        x_ref = np.square(y_ref[offset_fine:])
        out = np.empty((2 * len(n_list), inc_fine.shape[1]))
        for i, n in enumerate(n_list):
            r = n_ref // n
            grid_c = build_grid(model, n)
            y_c = simulate_y_paths(model, grid_c, block_sum(inc_fine, r), seg[::r])
            x_c = np.square(y_c[grid_c.n_per_delay :])
            np.max(np.abs(x_ref[::r] - x_c), axis=0, out=out[2 * i])
            weights = _coarse_on_fine_weights(fine_grid.n_steps, r)
            _uniform_error(x_ref, x_c, *weights, out=out[2 * i + 1])
        return out

    return experiments.map_paths(one_lane_plan(model, fine_grid, n_paths), seed, errors)


def _study_errors(walk_in_spans, model, n_list, n_ref, n_paths, seed, threads=1):
    """The per-path error matrix that strong_error_study reduces to its table,
    walked in two spans or more, and the plan."""
    return walk_in_spans(
        lambda: experiments.strong_error_study(
            model, n_list, n_ref, n_paths, (0.5,), seed=seed, threads=threads
        ),
        build_grid(model, n_ref).n_steps,
        -(-n_paths // threads),
    )


REGIMES = {
    # the CLI's levels and reference
    "defaults": (_model(), (8, 16, 32, 64, 128), 1024, 40),
    # ratios 12, 6 and 3: cell weights that are not powers of two
    "ratios-not-powers-of-two": (_model(), (3, 6, 12), 36, 200),
    # Feller index 2 a gamma / sigma^2 = 1.39: the conjugate root branch
    "feller-index-1.39": (_model(b=0.0, sigma=1.2), (8, 16, 32), 256, 200),
    "lognormal-start": (
        _model(
            gamma=GammaSpec.sinusoid(1.0, 0.3, 3.0),
            initial=InitialSegmentSpec.lognormal(1.0, 0.3),
        ),
        (4, 8, 16),
        64,
        200,
    ),
    # 520 fine steps in spans of a multiple of 40: the last span is short
    "short-last-block": (_model(horizon=1.3), (5, 10, 20), 200, 100),
}


@pytest.mark.parametrize("regime", list(REGIMES))
def test_study_errors_equal_whole_path_errors(walk_in_spans, regime):
    model, n_list, n_ref, n_paths = REGIMES[regime]
    err, plan = _study_errors(walk_in_spans, model, n_list, n_ref, n_paths, seed=11)
    # spans of whole coarsest cells
    assert plan.span % (n_ref // n_list[0]) == 0
    ref = _whole_path_errors(model, n_list, n_ref, n_paths, seed=11)
    assert err.shape == (2 * len(n_list), n_paths)
    assert np.array_equal(_bits(err), _bits(ref))
    assert np.all(err > 0.0)


def test_short_last_block_regime_has_several_blocks(walk_in_spans):
    model, n_list, n_ref, n_paths = REGIMES["short-last-block"]
    n_steps = build_grid(model, n_ref).n_steps
    _, plan = _study_errors(walk_in_spans, model, n_list, n_ref, n_paths, seed=11)
    assert plan.span < n_steps and n_steps % plan.span


def test_study_errors_on_two_workers_equal_whole_path_errors(walk_in_spans):
    model, n_list, n_ref, _ = REGIMES["feller-index-1.39"]
    err, _ = _study_errors(walk_in_spans, model, n_list, n_ref, 300, seed=5, threads=2)
    assert multiprocessing.active_children() == []
    ref = _whole_path_errors(model, n_list, n_ref, 300, seed=5)
    assert np.array_equal(_bits(err), _bits(ref))
