"""The time-major path engine against per-path, per-step reference loops.

The references below are the straightforward forms the engine replaces:
one ``Generator(Philox(key))`` per path and stream, path-major stacking of
per-path draws, and a march that calls :func:`implicit_step` once per step on
a (paths, nodes) array.  The engine must agree with them bit for bit.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest
from conftest import one_lane_plan
from scipy.special import ndtri

from delay_cir import experiments
from delay_cir.experiments import (
    _CHUNK,
    comparison_census,
    map_paths,
    positivity_census,
    strong_error_study,
)
from delay_cir.model import GammaSpec, InitialSegmentSpec, ModelSpec, OutOfRange, build_grid
from delay_cir.noise import block_sum, generate, sample_segment
from delay_cir.scheme import (
    NonPositiveForcing,
    implicit_step,
    simulate_y_paths,
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
        [sample_segment(model.initial, grid, seed, range(i, i + 1))[:, 0] for i in range(n_paths)]
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
    inc = generate(grid, seed, paths)
    seg = sample_segment(model.initial, grid, seed, paths)
    return inc, seg


def test_batched_noise_matches_per_path_generators():
    grid = build_grid(_model(), 16)
    ref = np.stack(
        [_reference_normals(5, i, 0, grid.n_steps) for i in range(3, 300)], axis=1
    ) * np.sqrt(grid.delta)
    assert np.array_equal(generate(grid, 5, range(3, 300)), ref)
    assert np.array_equal(generate(grid, 5, range(7, 8)), ref[:, 4:5])
    spec = InitialSegmentSpec.lognormal(1.5, 0.4)
    levels = [
        1.5 * math.exp(0.4 * _reference_normals(5, i, 1, 1)[0]) for i in range(300)
    ]
    batch = sample_segment(spec, grid, 5, range(300))
    assert batch.shape == (grid.n_per_delay + 1, 300)
    assert np.array_equal(batch, np.tile(levels, (grid.n_per_delay + 1, 1)))
    for i in (0, 123, 299):
        one = sample_segment(spec, grid, 5, range(i, i + 1))
        assert np.array_equal(batch[:, i : i + 1], one)


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
    # a_under = -0.105 < 0 (sigma^2 > 4 a gamma), which b_bar z^2 = 0.005
    # does not lift above zero; the march checks a_under, path-free, before
    # its first step and names that step
    model = _model(sigma=2.2, b=0.01)
    grid = build_grid(model, 4)
    with pytest.raises(NonPositiveForcing, match="step to node 1:"):
        simulate_y_paths(model, grid, np.zeros(grid.n_steps), np.ones(5))
    with pytest.raises(NonPositiveForcing, match="needs sigma"):
        one_lane_plan(model, grid, 300)


def _first_overflow(model, grid, seed, n_paths):
    """Per path, the first node where X = Y^2 of a whole-horizon march is
    not finite, or None."""
    with np.errstate(over="ignore", invalid="ignore"):
        inc, seg = _engine_inputs(model, grid, seed, n_paths)
        x = np.square(simulate_y_paths(model, grid, inc, seg)[grid.n_per_delay + 1 :])
    off = ~np.isfinite(x)
    return [int(np.argmax(off[:, p])) + 1 if off[:, p].any() else None for p in range(n_paths)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("horizon", [0.5, 1.5])
def test_forcing_failure_names_the_run_path_and_time(workers, horizon):
    # A model outside the implicit scheme's domain is rejected before any
    # path (the test above); the one failure that names a run path is X =
    # Y^2 leaving the float range.  At b 1e5 a lognormal start level near 1e304
    # overflows at node 1.  Of these 300 paths, 209 and 237 are the only such
    # ones; on 2 workers they lie in the second chunk, 150 .. 299.  Over one
    # delay no other path overflows; over three, every path does, path 0 at
    # node 5, and the smallest path still names the failure.  Spans of 4
    # steps find path 0's node in a later span than the others'.
    model = _model(b=1e5, horizon=horizon, initial=InitialSegmentSpec.lognormal(1e303, 0.5))
    grid = build_grid(model, 4)
    first = _first_overflow(model, grid, 16, 300)
    assert [p for p in range(300) if first[p] == 1] == [209, 237]
    path = 209 if horizon == 0.5 else 0
    assert next(p for p in range(300) if first[p] is not None) == path

    def terminal(draw, seg):
        experiments.walk_blocks(plan, draw, seg, lambda k0, inc, windows: None)
        return seg[0]

    for span in (grid.n_steps, 4):
        plan = replace(one_lane_plan(model, grid, 300, workers), span=span)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OutOfRange) as failed:
                map_paths(plan, 16, terminal)
        assert str(failed.value) == (
            f"X = Y^2 leaves the float range at node {first[path]} "
            f"(path {path}, t = {first[path] * 0.125})"
        )
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_the_earliest_lane_names_an_overflow(workers):
    # The strong study's lanes march finest first.  Over three delays the
    # coarse lanes of this start overflow later than the reference, at steps
    # 12 and 10 of the reference grid against 9, and do not move the node
    # named; over one delay every lane overflows at its first node.
    n_list, n_ref = [2, 4], 8
    for horizon, lane_steps in ((0.5, [4, 2, 1]), (1.5, [12, 10, 9])):
        model = _model(
            b=1e5, horizon=horizon, initial=InitialSegmentSpec.lognormal(1e303, 0.5)
        )
        fine = build_grid(model, n_ref)
        inc, seg = _engine_inputs(model, fine, 16, 300)
        steps = []
        for n in (*n_list, n_ref):
            r = n_ref // n
            with np.errstate(over="ignore", invalid="ignore"):
                y = simulate_y_paths(model, build_grid(model, n), block_sum(inc, r), seg[::r])
                off = ~np.isfinite(np.square(y[n + 1 :]))
            steps.append(np.where(off.any(axis=0), (np.argmax(off, axis=0) + 1) * r, np.inf))
        path = int(np.flatnonzero(np.isfinite(np.min(steps, axis=0)))[0])
        assert [lane[path] for lane in steps] == lane_steps
        expected = int(min(lane_steps))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OutOfRange) as failed:
                strong_error_study(model, n_list, n_ref, 300, [1.0], 16, threads=workers)
        assert str(failed.value) == (
            f"X = Y^2 leaves the float range at node {expected} "
            f"(path {path}, t = {expected / 16})"
        )


@pytest.mark.parametrize("workers", [1, 2])
def test_a_coarse_lane_alone_names_its_overflow(workers, monkeypatch):
    # Over one delay paths 209 and 237 overflow at the first node of every
    # lane (the test above).  Path 9 of the coarsest lane, N = 2, set to inf
    # from its node 2 after each march, is a lower path whose X leaves the
    # float range in that lane alone: its step 8 of the reference grid is
    # named.
    inner = experiments.scheme_mod.simulate_y_paths

    def march(model, grid, increments, segment, *, window, start):
        inner(model, grid, increments, segment, window=window, start=start)
        if grid.n_per_delay == 2:
            for j in range(max(start + 1, 2), start + len(increments) + 1):
                window[(2 + j) % len(window), 9] = np.inf

    monkeypatch.setattr(experiments.scheme_mod, "simulate_y_paths", march)
    model = _model(b=1e5, horizon=0.5, initial=InitialSegmentSpec.lognormal(1e303, 0.5))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OutOfRange) as failed:
            strong_error_study(model, [2, 4], 8, 300, [1.0], 16, threads=workers)
    assert str(failed.value) == "X = Y^2 leaves the float range at node 8 (path 9, t = 0.5)"


def test_map_paths_is_thread_and_chunk_independent():
    model = _model(initial=InitialSegmentSpec.lognormal(1.0, 0.2))
    grid = build_grid(model, 8)
    # in process: three chunks, the last one partial; on 2 workers four
    # chunks of 1049 or 1050 paths, on 3 workers three of 1399 or 1400
    n_paths = 2 * _CHUNK + 102

    def terminal(draw, seg):
        return np.square(simulate_y_paths(model, grid, draw(), seg)[[-2, -1]])

    one = map_paths(one_lane_plan(model, grid, n_paths), 3, terminal)
    assert one.shape == (2, n_paths)
    for workers in (2, 3):
        plan = one_lane_plan(model, grid, n_paths, workers)
        assert np.array_equal(one, map_paths(plan, 3, terminal))
    # more workers than paths: one path per chunk
    assert np.array_equal(one[:, :3], map_paths(one_lane_plan(model, grid, 3, 4), 3, terminal))
    assert multiprocessing.active_children() == []
    inc_ref, seg_ref = _reference_inputs(model, grid, 3, n_paths)
    y_ref = _reference_march(model, grid, inc_ref, seg_ref)
    assert np.array_equal(one, np.square(y_ref[:, [-2, -1]]).T)


@pytest.mark.parametrize(
    "workers, sizes", [(1, [1400, 1399, 1399]), (2, [1050, 1050, 1049, 1049])]
)
def test_the_chunks_that_run_are_the_plans(workers, sizes):
    # each chunk reports its first path, found from its first increment, on
    # every one of its paths; in process and on 2 workers
    model = _model()
    grid = build_grid(model, 4)
    n_paths = 2 * _CHUNK + 102
    plan = one_lane_plan(model, grid, n_paths, workers)
    first_increment = generate(grid, 9, range(n_paths))[0]
    path_of = {value: path for path, value in enumerate(first_increment.tolist())}

    def first_path(draw, seg):
        return np.full(seg.shape[1], path_of[float(draw(0, 1)[0, 0])])

    starts, counts = np.unique(map_paths(plan, 9, first_path), return_counts=True)
    assert len(counts) == plan.chunks and max(counts) <= plan.paths
    assert counts.tolist() == sizes and plan.workers == workers
    assert starts.tolist() == np.cumsum([0] + sizes[:-1]).tolist()
    assert multiprocessing.active_children() == []


def test_positivity_census_on_two_workers_matches_one():
    # the benchmark's positivity_boundary split: 2048 paths, two 1024-path
    # chunks on 2 workers (with N = 64 in place of 1024, to stay quick)
    model = _model(b=0.0, sigma=1.2)
    grid = build_grid(model, 64)
    names = ("implicit", "truncated", "symmetrized")
    one = positivity_census(names, model, grid, 2048, seed=2024, threads=1)
    assert one == positivity_census(names, model, grid, 2048, seed=2024, threads=2)
    assert any(row.fraction_nonpositive > 0.0 for row in one)


# Rows of 8 B per path of the walk budget of the census tests, for chunks of
# 300 paths: a census of the implicit scheme and its one explicit row at
# N = 128 then plans spans of 256 steps, 2 (256 + 1) + 256 + 1 rows, and
# 256 more where its processes draw a span ahead.
CENSUS_ROWS = 771


def _census_budget(monkeypatch, threads: int = 1) -> None:
    """Cut the walk budget to CENSUS_ROWS for a census on ``threads`` workers."""
    ahead = experiments._draw_cpus(threads) > 1
    monkeypatch.setattr(experiments, "_WALK_BYTES", 8 * 300 * (CENSUS_ROWS + 256 * ahead))


def _census_model(monkeypatch, sigma=1.2):
    # N = 128 over 3.25 makes 832 steps: three whole spans of 256, the third
    # wrapping round the ring windows of 257 rows, and a quarter one
    _census_budget(monkeypatch)
    model = _model(
        b=0.0, sigma=sigma, horizon=3.25, initial=InitialSegmentSpec.lognormal(1.0, 0.3)
    )
    grid = build_grid(model, 128)
    assert grid.n_steps == 832
    return model, grid


def test_blocked_positivity_census_equals_whole_path_flags(monkeypatch):
    model, grid = _census_model(monkeypatch)
    names = ("symmetrized", "implicit", "truncated")
    inc, seg = _engine_inputs(model, grid, 8, 300)
    y = simulate_y_paths(model, grid, inc, seg)
    flagged = {
        "implicit": np.any(np.square(y[grid.n_per_delay :]) <= 0.0, axis=0),
        "truncated": truncated_euler_paths(model, grid, inc, seg)[1] > 0,
        "symmetrized": symmetrized_euler_paths(model, grid, inc, seg)[1] > 0,
    }
    with experiments.recorded_walks() as plans:
        rows = positivity_census(names, model, grid, 300, seed=8)
    assert [plan.span for plan in plans] == [256]
    assert [row.scheme for row in rows] == list(names)
    for row in rows:
        assert row.fraction_nonpositive == np.count_nonzero(flagged[row.scheme]) / 300
    assert rows[2].fraction_nonpositive > 0.0


def test_positivity_census_rows_are_the_same_at_one_two_and_three_workers(monkeypatch):
    # 600 paths: two chunks of 300 in process and on 2 workers, walked in
    # spans of 256; 3 x 200 on 3, in longer spans
    model, grid = _census_model(monkeypatch)
    names = ("implicit", "truncated", "symmetrized", "truncated")
    with experiments.recorded_walks() as plans:
        one = positivity_census(names, model, grid, 600, seed=2024, threads=1)
        for workers in (2, 3):
            _census_budget(monkeypatch, workers)
            assert positivity_census(names, model, grid, 600, seed=2024, threads=workers) == one
    assert [(plan.paths, plan.span) for plan in plans[:2]] == [(300, 256)] * 2
    assert plans[2].paths == 200 and 256 < plans[2].span < grid.n_steps
    assert one[1] == one[3] and one[1].fraction_nonpositive > 0.0
    assert multiprocessing.active_children() == []


def test_blocked_comparison_census_counts_every_violation(monkeypatch):
    # models out of order on purpose, with the precondition check skipped, so
    # that the spans have violations to count
    model, grid = _census_model(monkeypatch, sigma=0.5)
    upper, lower = model, _model(b=0.5, sigma=0.5, horizon=3.25, initial=model.initial)
    monkeypatch.setattr(experiments, "check_comparable", lambda *models: None)
    inc, seg = _engine_inputs(model, grid, 6, 300)
    below = simulate_y_paths(upper, grid, inc, seg) < simulate_y_paths(lower, grid, inc, seg)
    expected = int(np.count_nonzero(below))
    assert expected > 0
    with experiments.recorded_walks() as plans:
        for workers in (1, 2):
            assert comparison_census(upper, lower, grid, 300, seed=6, threads=workers) == expected
    assert all(plan.span < grid.n_steps for plan in plans)


class ChunkFailed(LookupError):
    """Raised by a test reduction; pickled back from a worker by reference."""


@pytest.mark.parametrize(
    "n_paths, threads, chunk, sizes",
    [
        (25000, 1, _CHUNK, [1924] + [1923] * 12),  # the benchmark's mean check
        (2048, 1, 963, [683, 683, 682]),  # a chunk shrunk by the walk plan
        (10000, 2, _CHUNK, [1667] * 4 + [1666] * 2),  # the default study, 3 chunks each
        (2048, 2, _CHUNK, [1024, 1024]),
        (3, 2, _CHUNK, [2, 1]),
        (0, 1, _CHUNK, []),
    ],
)
def test_the_paths_split_into_even_chunks_the_larger_first(n_paths, threads, chunk, sizes):
    # at one worker as at several; chunks of one size run back to back
    chunks = experiments._chunk_count(n_paths, threads, chunk)
    bounds = [experiments._chunk_paths(n_paths, chunks, i) for i in range(chunks)]
    assert [len(paths) for paths in bounds] == sizes
    assert [paths.start for paths in bounds] + [n_paths] == [0] + [p.stop for p in bounds]


class _RecordingPool:
    """An in-process stand-in for the fork context's ``Pool``."""

    processes: list[int] = []

    def __init__(self, processes, initializer, initargs):
        self.processes.append(processes)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, func, items):
        return map(func, items)


def test_the_pool_forks_no_more_processes_than_the_cpus(monkeypatch):
    # threads = 10000 plans 64 chunks of one path for 64 workers; the pool
    # gets at most one process per CPU, and the bits follow the plan alone
    model = _model()
    grid = build_grid(model, 4)
    names = ("implicit", "truncated")
    expected = positivity_census(names, model, grid, 64, seed=5, threads=1)

    class Context:
        Pool = _RecordingPool

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(_RecordingPool, "processes", [])
    with experiments.recorded_walks() as walks:
        got = positivity_census(names, model, grid, 64, seed=5, threads=10_000)
    assert got == expected
    (plan,) = walks
    assert (plan.chunks, plan.workers) == (64, 64)
    cpus = len(os.sched_getaffinity(0))
    assert plan.processes == min(64, cpus)
    assert _RecordingPool.processes == ([plan.processes] if cpus > 1 else [])


@pytest.mark.parametrize("workers, first_failed", [(1, 1500), (2, 1500), (3, 1000)])
def test_a_failed_chunk_reaches_the_caller(workers, first_failed):
    # 3000 paths in two even chunks of at most _CHUNK paths, or three on 3
    # workers; every chunk but the first fails, naming its first path; on 3
    # workers two chunks fail, and the one earlier in path order is raised
    model = _model()
    grid = build_grid(model, 4)
    n_paths = 3000
    first_increment = generate(grid, 9, range(n_paths))[0]
    path_of = {value: path for path, value in enumerate(first_increment.tolist())}
    assert len(path_of) == n_paths

    def fails_after_path_zero(draw, seg):
        inc = draw()
        first = path_of[float(inc[0, 0])]
        if first > 0:
            raise ChunkFailed(f"chunk from path {first}")
        return inc[-1]

    with pytest.raises(ChunkFailed) as info:
        map_paths(one_lane_plan(model, grid, n_paths, workers), 9, fails_after_path_zero)
    assert type(info.value) is ChunkFailed
    assert str(info.value) == f"chunk from path {first_failed}"
    assert multiprocessing.active_children() == []


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


@pytest.mark.parametrize(
    "bad, message", [(np.nan, "finite"), (np.inf, "finite"), (0.0, "positive"), (-1.0, "positive")]
)
def test_broadcast_segments_are_checked_at_every_distinct_value(bad, message):
    # one level per path repeated over the nodes, and one value per node
    # repeated over the paths: the bad value is the last distinct one
    model = _model(b=0.0)
    grid = build_grid(model, 4)
    inc = np.zeros((grid.n_steps, 3))
    nodes = grid.n_per_delay + 1
    per_node = np.ones(nodes)
    per_node[-1] = bad
    segments = (
        np.broadcast_to(np.array([1.0, 2.0, bad]), (nodes, 3)),
        np.broadcast_to(per_node[:, None], (nodes, 3)),
    )
    for seg in segments:
        for march in (simulate_y_paths, truncated_euler_paths, symmetrized_euler_paths):
            with pytest.raises(ValueError, match=f"segment values must be {message}"):
                march(model, grid, inc, seg)


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
