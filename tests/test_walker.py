"""Every experiment walks its chunks in time blocks (``experiments.walk_blocks``).

The references below are the whole-horizon reductions the walker replaced
for the mean check, the modulus and the survival functional: each chunk
draws all its increments, marches them with ``simulate_y_paths`` without a
window and reduces the whole path.  The walked experiments must give the
same per-path arrays, bit for bit, over horizons of several blocks.  A guard
checks that no experiment draws more than one block of steps at a time.
"""

from __future__ import annotations

import math
import multiprocessing

import numpy as np
import pytest

from delay_cir import experiments, noise
from delay_cir.experiments import (
    _BLOCK_STEPS,
    comparison_census,
    classical_variant,
    mean_consistency_check,
    modulus_scaling,
    positivity_census,
    strong_error_study,
    survival_probability,
)
from delay_cir.model import GammaSpec, InitialSegmentSpec, ModelSpec, OutOfRange, build_grid
from delay_cir.scheme import simulate_y_paths

PATHS = 60


def _model(**kw) -> ModelSpec:
    base = dict(
        a=1.0,
        b=0.2,
        sigma=0.25,
        tau=0.5,
        t0=0.0,
        horizon=1.5,
        gamma=GammaSpec.sinusoid(1.0, 0.3, 3.0),
        initial=InitialSegmentSpec.lognormal(1.0, 0.3),
    )
    base.update(kw)
    return ModelSpec(**base)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


# K = 300, 384 and 600 steps: two, two and three blocks of 256 steps, the
# last one short
GRIDS = {300: (100, 1.5), 384: (128, 1.5), 600: (100, 3.0)}


def _grid(n_steps: int):
    n, horizon = GRIDS[n_steps]
    model = _model(horizon=horizon)
    grid = build_grid(model, n)
    assert grid.n_steps == n_steps > _BLOCK_STEPS
    return model, grid


def _walked(monkeypatch, run):
    """The per-path array that the experiment ``run()`` reduces."""
    seen = []
    inner = experiments.map_paths

    def recording(*args, **kwargs):
        seen.append(inner(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(experiments, "map_paths", recording)
    run()
    monkeypatch.setattr(experiments, "map_paths", inner)
    (per_path,) = seen
    return per_path


def _whole(model, grid, reduce_x):
    """``reduce_x`` of each chunk's X on nodes 0 .. K, from whole-horizon marches."""

    def reduce(draw, seg):
        y = simulate_y_paths(model, grid, draw(), seg)
        return reduce_x(np.square(y[grid.n_per_delay :]))

    return experiments.map_paths(model, grid, 4, PATHS, reduce)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n_steps", sorted(GRIDS))
def test_mean_check_samples_equal_whole_horizon_samples(monkeypatch, n_steps, threads):
    model, grid = _grid(n_steps)
    ks = [0, 1, 255, 256, 257, n_steps]
    got = _walked(
        monkeypatch,
        lambda: mean_consistency_check(
            model, grid, PATHS, [grid.time(k) for k in ks], seed=4, threads=threads
        ),
    )
    want = _whole(model, grid, lambda x: x[ks])
    assert np.array_equal(_bits(got), _bits(want))
    assert multiprocessing.active_children() == []


def _whole_moduli(distinct):
    def moduli(x):
        out = np.empty((len(distinct), x.shape[1]))
        running = np.zeros(x.shape[1])
        for lag in range(1, distinct[-1] + 1):
            np.maximum(running, np.max(np.abs(x[lag:] - x[:-lag]), axis=0), out=running)
            if lag in distinct:
                out[distinct.index(lag)] = running
        return out

    return moduli


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n_steps", sorted(GRIDS))
@pytest.mark.parametrize("spread", [True, False])
def test_moduli_equal_whole_horizon_moduli(monkeypatch, n_steps, threads, spread):
    model, grid = _grid(n_steps)
    # lags around the block edges up to K, or lag 1 alone, whose pairs alone
    # make its modulus; delta = 1 (lag 256 of K = 384) is tested below
    lags = [
        lag
        for lag in ((1, 17, 255, 256, 257, 299, n_steps) if spread else (1,))
        if lag * grid.delta != 1.0
    ]
    got = _walked(
        monkeypatch,
        lambda: modulus_scaling(
            model, grid, PATHS, [lag * grid.delta for lag in lags], seed=4, threads=threads
        ),
    )
    want = _whole(model, grid, _whole_moduli(sorted(set(lags))))
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n_steps", sorted(GRIDS))
def test_survival_values_equal_whole_horizon_values(monkeypatch, n_steps, threads):
    model, grid = _grid(n_steps)
    got = _walked(
        monkeypatch,
        lambda: survival_probability(model, grid, PATHS, seed=4, threads=threads),
    )

    def discounted(x):
        total = np.ascontiguousarray(x.T).sum(axis=1)
        return np.exp(-(grid.delta * (total - 0.5 * (x[0] + x[-1]))))

    assert np.array_equal(_bits(got), _bits(_whole(model, grid, discounted)))


# ---------------------------------------------------------------------------
# no whole-horizon draw
# ---------------------------------------------------------------------------


def _census_model():
    return _model(b=0.0, sigma=1.2, gamma=GammaSpec.constant(1.0))


RUNS = {
    # 520 fine steps in blocks of 280, 256 rounded up to the coarsest ratio 40
    "strong_rate": (
        lambda: strong_error_study(
            _model(horizon=1.3), (5, 10, 20), 200, PATHS, (1.0,), seed=4
        ),
        280,
    ),
    "mean_check": (
        lambda: mean_consistency_check(*_grid(384), PATHS, [0.75, 1.5], seed=4),
        _BLOCK_STEPS,
    ),
    "comparison": (
        lambda: comparison_census(
            _census_model(),
            classical_variant(_census_model()),
            build_grid(_census_model(), 128),
            PATHS,
            seed=4,
        ),
        _BLOCK_STEPS,
    ),
    "positivity": (
        lambda: positivity_census(
            ("implicit", "truncated", "symmetrized"),
            _census_model(),
            build_grid(_census_model(), 128),
            PATHS,
            seed=4,
        ),
        _BLOCK_STEPS,
    ),
    "modulus": (
        lambda: modulus_scaling(*_grid(384), PATHS, (0.5, 1.5), seed=4),
        _BLOCK_STEPS,
    ),
    "survival": (lambda: survival_probability(*_grid(600), PATHS, seed=4), _BLOCK_STEPS),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_no_experiment_draws_more_than_one_block(monkeypatch, name):
    run, block = RUNS[name]
    spans = []
    inner = noise.generate

    def recording(grid, seed, path_index, start=0, stop=None):
        spans.append((start, grid.n_steps if stop is None else stop, grid.n_steps))
        return inner(grid, seed, path_index, start, stop)

    monkeypatch.setattr(noise, "generate", recording)
    run()
    n_steps = spans[0][2]
    assert n_steps > block
    # one chunk: the draws tile the steps 0 .. K - 1 in order
    assert [start for start, _, _ in spans] == list(range(0, n_steps, block))
    assert all(stop - start <= block for start, stop, _ in spans)
    assert spans[-1][1] == n_steps


# ---------------------------------------------------------------------------
# the modulus fit and the mean check's standard error
# ---------------------------------------------------------------------------


def test_modulus_fit_leaves_delta_one_out():
    model = _model(b=0.0, gamma=GammaSpec.constant(1.0))
    grid = build_grid(model, 4)  # delta 1/8, K = 12
    deltas = (0.125, 0.25, 1.0, 0.5)
    res = modulus_scaling(model, grid, 40, deltas, seed=2)
    assert [row.delta for row in res.rows] == [0.125, 0.25, 0.5, 1.0]
    kept = res.rows[:3]
    xs = [math.log(math.sqrt(r.delta * abs(math.log(r.delta)))) for r in kept]
    slope = float(np.polyfit(xs, [math.log(r.modulus) for r in kept], 1)[0])
    assert res.slope == slope
    # one row besides delta = 1: no slope
    assert math.isnan(modulus_scaling(model, grid, 40, (0.5, 1.0), seed=2).slope)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_mean_check_with_an_overflowing_standard_error_names_the_time():
    model = _model(b=0.2, initial=InitialSegmentSpec.lognormal(1e300, 3.0))
    grid = build_grid(model, 4)
    with pytest.raises(OutOfRange, match=r"checkpoint t = 0\.25 is inf"):
        mean_consistency_check(model, grid, 50, [0.25, 1.5], seed=2)
