"""Every experiment walks its chunks in spans of steps (``experiments.walk_blocks``).

The references below are the whole-horizon reductions the walker replaced
for the mean check, the modulus, the positivity census and the survival
functional: each chunk draws all its increments, marches them with
``simulate_y_paths`` (and the census's baselines one scheme at a time)
without a window and reduces the whole path.  The walked experiments must
give the same per-path arrays, bit for bit, over horizons of several spans;
the walk budget is cut down here (the ``walk_in_spans`` fixture) so that 60
paths are walked in two spans or more (``experiments.walk_plan``).  A guard
checks that no experiment draws more than one planned span of steps at a
time.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import math
import multiprocessing
import os
import threading
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from conftest import one_lane_plan

from delay_cir import cli, experiments, noise
from delay_cir.experiments import (
    comparison_census,
    classical_variant,
    mean_consistency_check,
    modulus_scaling,
    positivity_census,
    strong_error_study,
    survival_probability,
)
from delay_cir.model import GammaSpec, InitialSegmentSpec, ModelSpec, OutOfRange, build_grid
from delay_cir.scheme import (
    simulate_y_paths,
    square_rows,
    symmetrized_euler_paths,
    truncated_euler_paths,
)

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


# K = 300, 384 and 600 steps: two, two and three spans of the mean check's
# 256 steps at the budget walk_in_spans starts from, the last one short
GRIDS = {300: (100, 1.5), 384: (128, 1.5), 600: (100, 3.0)}


def _grid(n_steps: int):
    n, horizon = GRIDS[n_steps]
    model = _model(horizon=horizon)
    grid = build_grid(model, n)
    assert grid.n_steps == n_steps
    return model, grid


def _whole(model, grid, reduce_x):
    """``reduce_x`` of each chunk's X on nodes 0 .. K, from whole-horizon marches."""

    def reduce(draw, seg):
        y = simulate_y_paths(model, grid, draw(), seg)
        return reduce_x(np.square(y[grid.n_per_delay :]))

    return experiments.map_paths(one_lane_plan(model, grid, PATHS), 4, reduce)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n_steps", sorted(GRIDS))
def test_mean_check_samples_equal_whole_horizon_samples(walk_in_spans, n_steps, threads):
    model, grid = _grid(n_steps)
    ks = [0, 1, 255, 256, 257, n_steps]
    got, plan = walk_in_spans(
        lambda: mean_consistency_check(
            model, grid, PATHS, [grid.time(k) for k in ks], seed=4, threads=threads
        ),
        n_steps,
        PATHS // threads,
    )
    assert plan.span == 256  # checkpoints on either side of a span's end
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
def test_moduli_equal_whole_horizon_moduli(walk_in_spans, n_steps, threads, spread):
    model, grid = _grid(n_steps)
    # lags up to K, longer than the spans, or lag 1 alone, whose pairs alone
    # make its modulus; delta = 1 (lag 256 of K = 384) is tested below.  The
    # largest lag L makes the fold hold 2 L rows more per path, so a chunk of
    # the spread lags holds fewer paths than PATHS, in spans shorter than L.
    lags = [
        lag
        for lag in ((1, 17, 255, 256, 257, 299, n_steps) if spread else (1,))
        if lag * grid.delta != 1.0
    ]
    got, _ = walk_in_spans(
        lambda: modulus_scaling(
            model, grid, PATHS, [lag * grid.delta for lag in lags], seed=4, threads=threads
        ),
        n_steps,
        PATHS // threads,
    )
    want = _whole(model, grid, _whole_moduli(sorted(set(lags))))
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n_steps", sorted(GRIDS))
def test_moduli_in_spans_shorter_than_the_largest_lag_equal_whole_horizon_moduli(
    walk_in_spans, n_steps, threads
):
    # The fold carries the X of the L = 16 nodes before a span; in spans of
    # 13 or 15 steps that head overlaps the span's own nodes, and the last
    # span is short.
    model, grid = _grid(n_steps)
    lags = [1, 2, 5, 16]
    got, plan = walk_in_spans(
        lambda: modulus_scaling(
            model, grid, PATHS, [lag * grid.delta for lag in lags], seed=4, threads=threads
        ),
        lags[-1],
        PATHS // threads,
    )
    assert plan.span < lags[-1] and n_steps % plan.span
    assert np.array_equal(_bits(got), _bits(_whole(model, grid, _whole_moduli(lags))))


# name: (schemes, model fields, N).  At N = 32 the census walks 96 steps in
# spans shorter than a delay, the last one short.  The blow-up model has
# a delta = 5: each explicit step overshoots gamma by a factor of about -4, so
# every truncated path crosses zero within a few steps and every
# symmetrized one, growing by 4 a step, reaches inf and then NaN.
CENSUSES = {
    "three-schemes": (("implicit", "truncated", "symmetrized"), {"b": 0.0}, 32),
    "truncated-with-delay": (("truncated",), {"b": 0.2}, 32),
    "baselines": (("truncated", "symmetrized"), {"b": 0.0}, 32),
    "symmetrized": (("symmetrized",), {"b": 0.0}, 32),
    "blow-up": (
        ("implicit", "truncated", "symmetrized"),
        {"b": 0.0, "a": 50.0, "sigma": 0.5, "tau": 1.0, "horizon": 80.0},
        10,
    ),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", list(CENSUSES))
def test_census_flags_equal_whole_horizon_flags(walk_in_spans, case, threads):
    names, fields, n_per_delay = CENSUSES[case]
    model = _model(**({"sigma": 1.2, "gamma": GammaSpec.constant(1.0)} | fields))
    grid = build_grid(model, n_per_delay)
    n = grid.n_per_delay
    blow_up = case == "blow-up"
    overflowed = f"symmetrized Euler baseline .* overflowed on {PATHS} of {PATHS} paths"
    with np.errstate(over="ignore", invalid="ignore"):
        # the blow-up walks a long first span in four times the budget
        with pytest.warns(RuntimeWarning, match=overflowed) if blow_up else nullcontext():
            got, plan = walk_in_spans(
                lambda: positivity_census(names, model, grid, PATHS, seed=4, threads=threads),
                grid.n_steps if blow_up else n,
                (4 if blow_up else 1) * PATHS // threads,
            )

        def flags(draw, seg):
            inc = draw()
            x = {"implicit": np.square(simulate_y_paths(model, grid, inc, seg))}
            x["truncated"] = truncated_euler_paths(model, grid, inc, seg)[0]
            if "symmetrized" in names:
                x["symmetrized"] = symmetrized_euler_paths(model, grid, inc, seg)[0]
            if blow_up:
                # the first span holds each path's first crossing and a NaN
                # after it, which a NaN-blind min would let hide the crossing
                first = slice(n + 1, n + 1 + plan.span)
                assert np.all(np.any(x["truncated"][first] <= 0.0, axis=0))
                assert np.all(np.any(np.isnan(x["symmetrized"][first]), axis=0))
            per_path = [np.any(x[name][n:] <= 0.0, axis=0) for name in names]
            # and, after the flags, which paths of the marched explicit row
            # end off the float range
            explicit = "symmetrized" if "symmetrized" in names else "truncated"
            if explicit in names:
                per_path.append(~np.isfinite(x[explicit][-1]))
            return np.stack(per_path)

        want = experiments.map_paths(one_lane_plan(model, grid, PATHS), 4, flags)
    assert plan.span < grid.n_steps and grid.n_steps % plan.span
    assert np.array_equal(got, want)
    truncated = want[names.index("truncated")] if "truncated" in names else None
    if blow_up:
        assert truncated.all() and not want[names.index("symmetrized")].any()
        assert want[-1].all()  # every symmetrized path blew up
    elif len(want) > len(names):
        assert not want[-1].any()
    elif truncated is not None:
        assert truncated.any()


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("n_steps", sorted(GRIDS))
def test_survival_values_equal_whole_horizon_values(walk_in_spans, n_steps, threads):
    model, grid = _grid(n_steps)

    def discounted(x):
        # X summed in node order: 1/2 x_0, x_1, ..., x_{K-1}, 1/2 x_K
        total = 0.5 * x[0]
        for row in x[1:-1]:
            total = total + row
        return np.exp(-(grid.delta * (total + 0.5 * x[-1])))

    want = _whole(model, grid, discounted)
    # spans longer than a delay, then spans shorter than one
    for longest in (n_steps, grid.n_per_delay):
        got, plan = walk_in_spans(
            lambda: survival_probability(model, grid, PATHS, seed=4, threads=threads),
            longest,
            PATHS // threads,
        )
        assert plan.span < longest
        assert np.array_equal(_bits(got), _bits(want))


# ---------------------------------------------------------------------------
# the walker's spans and ring windows
# ---------------------------------------------------------------------------

WALKS = {
    # spans of 300 steps, longer than 256; every ring
    # holds a span's nodes and the one before them, T / r + 1 > N + 1
    "long-spans": (100, 3.0, 300),
    # spans shorter than a delay: every ring holds the N + 1 nodes a step
    # reads, N + 1 > T / r + 1
    "short-spans": (64, 1.5, 32),
    # 144 steps in spans of 60: the last span is short
    "short-last-span": (24, 3.0, 60),
}


@pytest.mark.parametrize("walk", list(WALKS))
def test_walked_lanes_equal_whole_horizon_marches(walk):
    n_fine, horizon, span = WALKS[walk]
    model = _model(horizon=horizon)
    fine = build_grid(model, n_fine)
    lanes = [(model, fine, 1), *((model, build_grid(model, n_fine // r), r) for r in (4, 2))]
    paths = range(7)
    inc = noise.generate(fine, 4, paths)
    seg = noise.sample_segment(model.initial, fine, 4, paths)
    want = [
        np.square(simulate_y_paths(m, g, noise.block_sum(inc, r), seg[::r])[g.n_per_delay :])
        for m, g, r in lanes
    ]
    got = [np.full_like(x, np.nan) for x in want]
    sizes = set()

    def fold(k0, increments, windows):
        # every node a ring holds for the fold: the span's and the one before
        sizes.add(tuple(len(w) for w in windows))
        for (_, g, r), x, window in zip(lanes, got, windows):
            lo, hi = k0 // r, (k0 + len(increments)) // r
            square_rows(window, g.n_per_delay + lo, hi + 1 - lo, out=x[lo:])

    def walked(draw, chunk_seg):
        # one chunk of every path, drawn as inc and seg are
        assert draw.paths == paths and np.array_equal(_bits(chunk_seg), _bits(seg))
        experiments.walk_blocks(plan, draw, chunk_seg, fold)
        return chunk_seg[0]

    plan = experiments.walk_plan(model, fine, lanes, len(paths), 1, fold_rows=lambda span: 0)
    plan = replace(plan, span=span)
    experiments.map_paths(plan, 4, walked)
    assert fine.n_steps > span
    rows = [max(g.n_per_delay + 1, span // r + 1) for _, g, r in lanes]
    assert sizes == {tuple(rows)}
    if walk == "long-spans":
        assert span > 256 and all(n == span // r + 1 for n, (_, _, r) in zip(rows, lanes))
    for x, y in zip(got, want):
        assert np.array_equal(_bits(x), _bits(y))


def test_every_chunk_of_an_in_process_walk_marches_in_the_first_chunks_windows():
    # three chunks of 21, 21 and 20 paths, two lanes, spans of 100 steps:
    # every fold sees views of the windows that the first chunk's fold saw,
    # which stay referenced, so a window made per chunk could not reuse them
    model, grid = _grid(300)
    lanes = [(model, grid, 1), (model, build_grid(model, 50), 2)]
    plan = experiments.walk_plan(model, grid, lanes, 62, 1, fold_rows=lambda span: 0)
    plan = replace(plan, chunks=3, paths=21, span=100)
    seen = []

    def reduce(draw, seg):
        experiments.walk_blocks(plan, draw, seg, lambda k0, inc, windows: seen.append(windows))
        return seg[0]

    experiments.map_paths(plan, 4, reduce)
    assert [[w.shape[1] for w in windows] for windows in seen] == 6 * [[21, 21]] + 3 * [[20, 20]]
    first = seen[0]
    assert all(np.shares_memory(w, v) for windows in seen for w, v in zip(windows, first))


def test_a_forked_worker_marches_every_chunk_it_runs_in_one_window(monkeypatch):
    # two workers on two usable CPUs run four chunks, at least one of them
    # two chunks or more; each worker keeps every window its folds saw, so a
    # window made per chunk would show a second data pointer in that worker
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    model, grid = _grid(300)
    plan = replace(one_lane_plan(model, grid, PATHS, 2), chunks=4, paths=PATHS // 4, span=100)
    assert plan.processes == 2
    kept = []  # each worker appends to its own copy

    def reduce(draw, seg):
        experiments.walk_blocks(plan, draw, seg, lambda k0, inc, windows: kept.extend(windows))
        mark = [[os.getpid()], [kept[-1].ctypes.data]]
        return np.full((2, seg.shape[1]), mark)

    got = experiments.map_paths(plan, 4, reduce)
    assert kept == [] and multiprocessing.active_children() == []
    pointers = {}
    for i in range(plan.chunks):
        ((pid, pointer),) = np.unique(got[:, i * plan.paths : (i + 1) * plan.paths], axis=1).T
        pointers.setdefault(pid, set()).add(pointer)
    assert all(len(seen) == 1 for seen in pointers.values()), pointers


@pytest.mark.parametrize(
    "name, rows", [("strong_rate", "x_coarse"), ("positivity", "x"), ("modulus", "x")]
)
def test_every_chunk_folds_in_the_first_chunks_span_rows(monkeypatch, name, rows):
    # three chunks of 20 paths: the rows that each chunk's fold reuses from
    # span to span, its closure's ``rows``, share memory with the first's
    monkeypatch.setattr(experiments, "_CHUNK", PATHS // 3)
    seen, walk = [], experiments.walk_blocks

    def walking(plan, draw, seg, fold):
        cells = dict(zip(fold.__code__.co_freevars, fold.__closure__))
        seen.append(cells[rows].cell_contents)
        walk(plan, draw, seg, fold)

    monkeypatch.setattr(experiments, "walk_blocks", walking)
    RUNS[name]()
    assert len(seen) == 3 and seen[0].size
    assert all(np.shares_memory(x, seen[0]) for x in seen)


# ---------------------------------------------------------------------------
# the plans of full-size runs
# ---------------------------------------------------------------------------


def _planned(tmp_path, plan_of, text):
    """The walk plan of a ``delay-cir run`` of the config ``text``."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    config = cli.parse_config(str(cfg))
    return plan_of(lambda: config.run(config.threads))


def test_the_budget_buys_long_spans_and_shrinks_chunks_only_where_it_must(
    tmp_path, plan_of, monkeypatch
):
    budget = experiments._WALK_BYTES
    # one process with a helper CPU, so each of its draws fills a span ahead
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    # the default rate study: 3072 fine steps in 12 spans of 256 per chunk
    rate = _planned(tmp_path, plan_of, "n_paths = 2048\n")
    assert (rate.span, rate.paths, rate.workers, rate.draw_cpus) == (256, 2048, 1, 2)
    assert 0.9 * budget < rate.bytes <= budget
    # 192 steps in one span; 25 000 paths in 13 even chunks
    mean_text = (
        "experiment = mean_check\nN = 64\ninitial.kind = lognormal\n"
        "initial.median = 1.0\ninitial.log_sd = 0.2\nn_paths = 25000\n"
    )
    mean = _planned(tmp_path, plan_of, mean_text)
    assert (mean.span, mean.paths) == (192, 1924)
    # its draws fill the next chunk's ahead, and the estimate counts those
    # rows; on one CPU neither changes, and the rate study takes spans of
    # 512 in the same budget
    assert mean.bytes <= budget
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
    alone = _planned(tmp_path, plan_of, mean_text)
    assert alone.draw_cpus == 1 and (alone.span, alone.paths) == (192, 1924)
    assert mean.bytes - alone.bytes == 8 * 1924 * 192
    rate_alone = _planned(tmp_path, plan_of, "n_paths = 2048\n")
    assert (rate_alone.span, rate_alone.paths) == (512, 2048)
    assert 0.9 * budget < rate_alone.bytes <= budget
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    # a three-scheme census at N 1024 on two workers: 4096 rows per path hold
    # the implicit window, the draw, the flags and the one explicit window,
    # 3 T + 3 rows, so 3072 steps take three spans of at most 1364
    census = _planned(
        tmp_path,
        plan_of,
        "experiment = positivity\nscheme = implicit,truncated,symmetrized\nb = 0\n"
        "sigma = 1.2\nN = 1024\nn_paths = 2048\nthreads = 2\n",
    )
    assert (census.paths, census.workers, census.span) == (1024, 2, 1364)
    assert census.bytes <= budget and census.draw_cpus == 1
    # at N_ref 4096 not even the shortest span, the coarsest ratio of 512
    # steps, fits 2048 paths: 801 do, or 883 without a span drawn ahead, so
    # the paths split into three even chunks.  Their 683 paths fit spans of
    # 512 steps, and longer ones, 1536, on one CPU.
    deep_text = "N_list = 8,16,32\nN_ref = 4096\nn_paths = 2048\n"
    deep = _planned(tmp_path, plan_of, deep_text)
    assert (deep.span, deep.paths, deep.draw_cpus) == (512, 683, 2)
    assert deep.bytes <= budget
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
    deep = _planned(tmp_path, plan_of, deep_text)
    assert (deep.span, deep.paths) == (1536, 683)
    assert 0.9 * budget < deep.bytes <= budget


# ---------------------------------------------------------------------------
# no whole-horizon draw
# ---------------------------------------------------------------------------


def _census_model():
    return _model(b=0.0, sigma=1.2, gamma=GammaSpec.constant(1.0))


RUNS = {
    # 520 fine steps in spans of a multiple of the coarsest ratio 40
    "strong_rate": lambda: strong_error_study(
        _model(horizon=1.3), (5, 10, 20), 200, PATHS, (1.0,), seed=4
    ),
    "mean_check": lambda: mean_consistency_check(*_grid(384), PATHS, [0.75, 1.5], seed=4),
    "comparison": lambda: comparison_census(
        _census_model(),
        classical_variant(_census_model()),
        build_grid(_census_model(), 128),
        PATHS,
        seed=4,
    ),
    "positivity": lambda: positivity_census(
        ("implicit", "truncated", "symmetrized"),
        _census_model(),
        build_grid(_census_model(), 128),
        PATHS,
        seed=4,
    ),
    "modulus": lambda: modulus_scaling(*_grid(384), PATHS, (0.5, 1.5), seed=4),
    "survival": lambda: survival_probability(*_grid(600), PATHS, seed=4),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_no_experiment_draws_more_than_one_block(monkeypatch, name):
    # a budget of 519 rows of 8 B per path, whose plans take spans of 256
    # steps or more (_SHORTEST_SPAN), but less than K
    monkeypatch.setattr(experiments, "_WALK_BYTES", 8 * PATHS * 519)
    spans = []
    inner = noise.generate

    def recording(grid, seed, path_index, start=0, stop=None, *, helpers=None):
        spans.append((start, grid.n_steps if stop is None else stop, grid.n_steps))
        return inner(grid, seed, path_index, start, stop, helpers=helpers)

    monkeypatch.setattr(noise, "generate", recording)
    with experiments.recorded_walks() as plans:
        RUNS[name]()
    ((_, _, n_steps), *_), (plan,) = spans, plans
    assert n_steps > plan.span
    # each chunk's draws tile the steps 0 .. K - 1 in order, a span each
    chunks = -(-PATHS // plan.paths)
    assert [start for start, _, _ in spans] == list(range(0, n_steps, plan.span)) * chunks
    assert all(stop == min(start + plan.span, n_steps) for start, stop, _ in spans)


# ---------------------------------------------------------------------------
# the CPUs that finish the draws
# ---------------------------------------------------------------------------


def test_draw_cpus_are_every_usable_cpu_in_process_and_one_in_a_forked_worker(monkeypatch):
    model, grid = _grid(300)
    for usable, workers, processes, cpus in (
        (2, 1, 1, 2), (2, 2, 2, 1), (3, 1, 1, 3), (3, 2, 2, 1), (4, 2, 2, 1), (1, 3, 1, 1)
    ):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: usable)
        plan = one_lane_plan(model, grid, 4 * PATHS, workers)
        assert (plan.processes, plan.draw_cpus) == (processes, cpus)


@pytest.mark.parametrize("workers, cpus", [(1, 2), (2, 1)])
def test_map_paths_passes_each_process_its_draw_cpus(monkeypatch, workers, cpus):
    # one process on two CPUs finishes its draws on both; two forked
    # workers are given no helpers and report one CPU each
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)

    def given(grid, seed, path_index, start=0, stop=None, *, helpers=None):
        return np.full((1, len(path_index)), float(1 if helpers is None else helpers.cpus))

    monkeypatch.setattr(noise, "generate", given)
    model, grid = _grid(300)
    plan = one_lane_plan(model, grid, 4 * PATHS, workers)
    assert plan.processes == workers
    seen = experiments.map_paths(plan, 3, lambda draw, seg: draw(0, 1)[0])
    assert seen.tolist() == [float(cpus)] * 4 * PATHS
    assert multiprocessing.active_children() == []


def test_studies_do_not_depend_on_the_draw_cpus(monkeypatch):
    model = _model(horizon=1.0)
    results = []
    for cpus in (1, 2):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        with experiments.recorded_walks() as plans:
            table = strong_error_study(model, (4, 8), 32, 3 * PATHS, (1.0, 2.0), seed=6)
            rows = mean_consistency_check(
                model, build_grid(model, 64), 3 * PATHS, [0.5, 1.0], seed=6
            )
        assert [plan.draw_cpus for plan in plans] == [cpus, cpus]
        results.append(repr((table, rows)))
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# draws filled ahead
# ---------------------------------------------------------------------------


def _ahead_plan(span: int):
    """A one-lane plan of PATHS paths on the 300-step grid, in three chunks
    walked in spans of ``span`` steps."""
    model, grid = _grid(300)
    plan = one_lane_plan(model, grid, PATHS)
    return replace(plan, chunks=3, paths=PATHS // 3, span=span)


def _spans_ahead(monkeypatch) -> tuple[list, list]:
    """The spans ``(paths, start, stop)`` that draws fill ahead from now on,
    and those that a draw takes from the fill ahead, in call order."""
    filled, taken = [], []
    draw = noise.DrawHelpers.draw

    def drawing(self, *request):
        if self._filled is not None and self._filled[0] == request:
            taken.append(_span_of(request))
        out = draw(self, *request)
        if self.then is not None:
            filled.append(_span_of(self._filled[0]))
        return out

    monkeypatch.setattr(noise.DrawHelpers, "draw", drawing)
    return filled, taken


def _span_of(request: tuple) -> tuple:
    _, paths, start, n, _ = request
    return paths, start, start + n


def _plan_spans(plan) -> list:
    """Every span of ``plan``'s walk, ``(paths, start, stop)``, in order."""
    k = plan.grid.n_steps
    return [
        (experiments._chunk_paths(plan.n_paths, plan.chunks, i), k0, min(k0 + plan.span, k))
        for i in range(plan.chunks)
        for k0 in range(0, k, plan.span)
    ]


@pytest.mark.parametrize("usable", [1, 2, 3])
@pytest.mark.parametrize("span", [64, 300])
def test_draws_filled_ahead_keep_the_bits_of_plain_draws(monkeypatch, usable, span):
    # spans of 64 steps (the last of 44) fill the chunk's next span ahead,
    # and its last span the next chunk's first; spans of the whole horizon
    # fill the next chunk's.  One usable CPU leaves no helper to fill for.
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: usable)
    plan = _ahead_plan(span)
    k = plan.grid.n_steps
    filled, taken = _spans_ahead(monkeypatch)

    def spans(draw, seg):
        return np.concatenate([draw(k0, min(k0 + span, k)) for k0 in range(0, k, span)])

    before = threading.active_count()
    got = experiments.map_paths(plan, 4, spans)
    assert threading.active_count() == before
    assert np.array_equal(_bits(got), _bits(noise.generate(plan.grid, 4, range(PATHS))))
    assert filled == taken == (_plan_spans(plan)[1:] if usable > 1 else [])


def test_a_draw_of_another_span_than_the_one_filled_ahead_keeps_its_bits(monkeypatch):
    # each chunk's first span fills steps 64 .. 127 ahead, and the chunk then
    # asks for the whole horizon, as _whole does, which fills the next
    # chunk's first span: that one is taken, steps 64 .. 127 never are
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    plan = _ahead_plan(64)
    filled, taken = _spans_ahead(monkeypatch)

    def whole(draw, seg):
        draw(0, 64)
        return draw()

    got = experiments.map_paths(plan, 4, whole)
    assert np.array_equal(_bits(got), _bits(noise.generate(plan.grid, 4, range(PATHS))))
    firsts = [span for span in _plan_spans(plan) if span[1] == 0]
    seconds = [(paths, 64, 128) for paths, _, _ in firsts]
    assert filled == [seconds[0], firsts[1], seconds[1], firsts[2], seconds[2]]
    assert taken == firsts[1:]


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
def test_no_helper_thread_outlives_a_walk_drawn_ahead(monkeypatch, fail):
    # three chunks of one span, or of five spans of 64 steps (the last of
    # 44), on the walk's one pool: the first chunk's last draw fills the
    # second chunk's first span ahead, and the chunk may then fail while
    # the helpers are still finishing it
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    filled, _ = _spans_ahead(monkeypatch)
    for span in (300, 64):
        plan = _ahead_plan(span)
        k = plan.grid.n_steps

        def reduce(draw, seg):
            x = np.concatenate([draw(k0, min(k0 + span, k)) for k0 in range(0, k, span)])
            if fail:
                raise OutOfRange("X = Y^2 leaves the float range at node 7 (path 0, t = 0.035)")
            return x

        filled.clear()
        before = threading.active_count()
        with pytest.raises(OutOfRange, match="node 7") if fail else nullcontext():
            got = experiments.map_paths(plan, 4, reduce)
        assert threading.active_count() == before
        spans = _plan_spans(plan)
        assert filled == spans[1 : -(-k // span) + 1 if fail else None]
        if not fail:
            assert np.array_equal(_bits(got), _bits(noise.generate(plan.grid, 4, range(PATHS))))


# ---------------------------------------------------------------------------
# one pool of helper threads per in-process walk
# ---------------------------------------------------------------------------


def _pools_made(monkeypatch) -> list:
    """The pid of the process that made each thread pool from now on: the
    draws' helpers take ``concurrent.futures.ThreadPoolExecutor`` when they
    are made."""
    made = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(os.getpid())
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    return made


@pytest.mark.parametrize("name", ["mean_check", "strong_rate"])
def test_an_in_process_walk_makes_one_pool(monkeypatch, name):
    # on two CPUs every draw of the walk finishes on the one pool and fills
    # the next span ahead; on one CPU the walk makes none.  The mean check
    # walks three chunks of 20 paths, each one span of K = 384 steps; the
    # rate study walks 520 fine steps in spans of 240, or of 160 with a
    # span drawn ahead (the budget of
    # test_no_experiment_draws_more_than_one_block).
    if name == "mean_check":
        monkeypatch.setattr(experiments, "_CHUNK", PATHS // 3)
    else:
        monkeypatch.setattr(experiments, "_WALK_BYTES", 8 * PATHS * 519)
    made, results = _pools_made(monkeypatch), {}
    for usable in (1, 2):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: usable)
        before = threading.active_count()
        with experiments.recorded_walks() as plans:
            results[usable] = repr(RUNS[name]())
        assert threading.active_count() == before
        (plan,) = plans
        assert plan.processes == 1 and plan.draw_cpus == usable
        assert len(made) == usable - 1
    assert results[1] == results[2]
    # the walk of several draws that made that one pool
    spans = -(-plan.grid.n_steps // plan.span)
    assert plan.chunks * spans > 2


def test_a_forked_walk_draws_on_each_workers_own_thread(monkeypatch):
    # two workers on four usable CPUs: no process makes a pool or fills a
    # span ahead, whatever spare CPUs it has, and no helper thread is alive
    # in this process at the fork or after it; the bits are those of plain
    # draws
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 4)
    made = _pools_made(monkeypatch)  # the workers inherit the records
    filled, taken = _spans_ahead(monkeypatch)
    fork = multiprocessing.get_context("fork")
    at_fork = []

    class Context:
        def Pool(self, *args, **kwargs):
            at_fork.append(threading.active_count())
            return fork.Pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context())
    model, grid = _grid(300)
    plan = replace(one_lane_plan(model, grid, PATHS, 2), chunks=6, paths=PATHS // 6, span=100)
    assert (plan.processes, plan.draw_cpus) == (2, 1)
    k = grid.n_steps

    def reduce(draw, seg):
        inc = np.concatenate([draw(k0, k0 + 100) for k0 in range(0, k, 100)])
        assert made == filled == taken == [], (made, filled, taken)
        return inc

    before = threading.active_count()
    got = experiments.map_paths(plan, 4, reduce)
    assert at_fork == [before] and threading.active_count() == before
    assert made == filled == taken == [] and multiprocessing.active_children() == []
    assert np.array_equal(_bits(got), _bits(noise.generate(grid, 4, range(PATHS))))


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
def test_no_helper_thread_outlives_a_walk_not_drawn_ahead(monkeypatch, fail):
    # one chunk of every path in one span of the whole horizon: its draw
    # finishes on the walk's one pool and no span of the plan follows it, so
    # nothing is filled ahead; the chunk fails once its draw is made
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    plan = replace(_ahead_plan(300), chunks=1, paths=PATHS)
    filled, _ = _spans_ahead(monkeypatch)
    made = _pools_made(monkeypatch)

    def reduce(draw, seg):
        x = draw()
        if fail:
            raise OutOfRange("X = Y^2 leaves the float range at node 7 (path 0, t = 0.035)")
        return x

    before = threading.active_count()
    with pytest.raises(OutOfRange, match="node 7") if fail else nullcontext():
        got = experiments.map_paths(plan, 4, reduce)
    assert threading.active_count() == before
    assert len(made) == 1 and filled == []
    if not fail:
        assert np.array_equal(_bits(got), _bits(noise.generate(plan.grid, 4, range(PATHS))))


@pytest.mark.parametrize("usable", [1, 2, 3])
def test_the_golden_mean_and_rate_products_do_not_depend_on_the_cpus(
    tmp_path, monkeypatch, usable
):
    # on one worker, a draw fills the next chunk's ahead where the process
    # has a helper CPU; on two, each process draws alone
    from test_golden_products import GOLDEN

    monkeypatch.setattr(experiments, "_usable_cpus", lambda: usable)
    for name in ("mean_check", "strong_rate"):
        text, expected = GOLDEN[name]
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text, encoding="utf-8")
        for threads in (1, 2):
            out = tmp_path / f"{name}-{threads}"
            args = ["run", "--config", str(cfg), "--out", str(out), "--threads", str(threads)]
            with experiments.recorded_walks() as plans:
                assert cli.main(args) == 0
            assert [plan.draw_cpus > 1 for plan in plans] == [threads == 1 and usable > 1]
            for product, digest in expected.items():
                assert hashlib.sha256((out / product).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("usable", [1, 2, 3])
def test_walked_experiments_equal_whole_horizon_runs_on_any_cpus(
    walk_in_spans, monkeypatch, usable
):
    # the equality cases above on one worker, with the CPUs that finish and
    # fill its draws forced
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: usable)
    for n_steps in sorted(GRIDS):
        test_mean_check_samples_equal_whole_horizon_samples(walk_in_spans, n_steps, 1)
        test_moduli_equal_whole_horizon_moduli(walk_in_spans, n_steps, 1, True)
        test_moduli_in_spans_shorter_than_the_largest_lag_equal_whole_horizon_moduli(
            walk_in_spans, n_steps, 1
        )
        test_survival_values_equal_whole_horizon_values(walk_in_spans, n_steps, 1)
    for case in CENSUSES:
        test_census_flags_equal_whole_horizon_flags(walk_in_spans, case, 1)


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
    model = _model(b=0.2, initial=InitialSegmentSpec.lognormal(1e300, 1.0))
    grid = build_grid(model, 4)
    with pytest.raises(OutOfRange, match=r"checkpoint t = 0\.25 is inf"):
        mean_consistency_check(model, grid, 50, [0.25, 1.5], seed=2)
