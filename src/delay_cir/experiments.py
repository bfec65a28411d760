"""Monte Carlo experiments: strong-convergence rates, consistency checks, censuses.

The central experiment couples every coarse resolution to one fine reference
path through shared Brownian increments (exact block sums, see
``delay_cir.noise``) and reports L^p norms of the pathwise sup errors:

* grid error      max over coarse nodes of |x_ref(t_k) - x_k|,
* uniform error   max over *fine* nodes of |Xhat_ref(t) - Xhat(t)|; both
                  interpolants are affine between fine nodes, so the fine-node
                  maximum is the exact sup over [t0, T].

Every experiment plans its run once, by a byte budget per worker
(:func:`walk_plan`): :func:`map_paths` runs the plan's chunks of paths
in-process or on forked workers, and :func:`walk_blocks` walks each chunk
time-major in spans of steps into per-path results, assembled in path
order.  Monte Carlo aggregation sums the per-path results pairwise with numpy, so
results depend neither on the plan nor on the worker count.
"""

from __future__ import annotations

import bisect
import math
import os
import warnings
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import noise as noise_mod
from . import scheme as scheme_mod
from .cir_analytics import (
    CIRParams,
    StrongFellerViolated,
    classical_mean,
    mean_delay_curve,
)
from .model import (
    GammaSpec,
    GridMisaligned,
    ModelSpec,
    OutOfRange,
    TimeGrid,
    build_grid,
    check_fits_float,
    check_grid,
    off_grid,
    rejected,
    validate,
)

Array = np.ndarray

__all__ = [
    "ErrorRow",
    "ErrorTable",
    "RateFit",
    "MeanCheckRow",
    "CensusRow",
    "ModulusRow",
    "ModulusResult",
    "SurvivalEstimate",
    "WalkPlan",
    "check_path_count",
    "check_worker_count",
    "walk_plan",
    "recorded_walks",
    "map_paths",
    "strong_error_study",
    "check_levels",
    "fit_rate",
    "checkpoint_indices",
    "mean_consistency_check",
    "check_comparable",
    "comparison_census",
    "positivity_census",
    "modulus_lags",
    "modulus_scaling",
    "survival_probability",
    "PRequestedTooLarge",
    "InsufficientRows",
    "IncomparableModels",
]

_CHUNK = 2048

# Bytes that one worker's chunk may hold while walk_blocks walks it: the ring
# windows, one span's increments, and the block sums and fold rows beside
# them (walk_plan).  A default strong-rate chunk of 2048 paths walks spans
# of 512 steps in it on one usable CPU (31.2 MiB), or of 256 steps where a
# helper CPU draws a span ahead (29.9 MiB); it held about as much in the
# fixed blocks of 256 steps that the budget replaced.
_WALK_BYTES = 32 << 20

# The shortest span that walk_plan shrinks a chunk to fit, rounded up to a
# multiple of every lane's ratio (K where that is shorter).  A draw pays a
# Philox re-keying and a fill call per path and span, about 3 us, which over
# 256 steps is about what the span's march of one lane costs per path.
_SHORTEST_SPAN = 256


class PRequestedTooLarge(ValueError):
    """A requested L^p order is outside the range backed by the conditions."""


class InsufficientRows(ValueError):
    """Not enough table rows to fit a rate."""


class IncomparableModels(ValueError):
    """The two models do not satisfy the pathwise-comparison preconditions."""


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WalkPlan:
    """Everything the walk of a run needs (:func:`walk_plan`): :func:`map_paths`
    runs paths 0 .. ``n_paths`` - 1 of ``model`` in ``chunks`` chunks of at
    most ``paths`` paths, planned for ``workers`` workers and run on
    :attr:`processes`, :func:`walk_blocks` each chunk in spans of ``span``
    steps; ``bytes`` estimates what a chunk holds."""

    model: ModelSpec
    grid: TimeGrid
    lanes: tuple
    n_paths: int
    chunks: int
    span: int
    paths: int
    workers: int
    bytes: int

    @property
    def processes(self) -> int:
        """The processes that run the chunks: ``workers``, but no more than
        :func:`_usable_cpus`."""
        return min(self.workers, _usable_cpus())

    @property
    def draw_cpus(self) -> int:
        """The CPUs on which the walk draws (:func:`map_paths`): every one of
        :func:`_usable_cpus` for a walk in one process, else 1."""
        return _draw_cpus(self.workers)


def _draw_cpus(workers: int) -> int:
    """:attr:`WalkPlan.draw_cpus` of a plan for ``workers`` workers."""
    return _usable_cpus() if workers == 1 else 1


def _usable_cpus() -> int:
    """The CPUs this process may run on, or the machine's where ``os``
    cannot tell (macOS, Windows)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def check_path_count(n_paths: int) -> None:
    """Raise unless a run has at least two paths, which a standard error
    needs, and a count that converts to a float and whose per-path results
    fit one array; the error's ``argument`` is ``"n_paths"``."""
    if n_paths < 2:
        raise rejected(ValueError, "n_paths", f"need at least two paths, got {n_paths}")
    check_fits_float("n_paths", n_paths)
    if n_paths > np.iinfo(np.intp).max // 8:
        raise rejected(OutOfRange, "n_paths", f"{n_paths:.3g} paths exceed the largest array")


def check_worker_count(threads: int) -> None:
    """Raise unless a run has at least one worker; the error's ``argument``
    is ``"threads"``."""
    if threads < 1:
        raise rejected(ValueError, "threads", f"need at least one worker, got {threads}")


def _chunk_count(n_paths: int, threads: int, cap: int) -> int:
    """How many chunks of at most ``cap`` paths :func:`walk_plan` makes."""
    return min(n_paths, threads * -(-n_paths // (threads * cap)))


def _chunk_paths(n_paths: int, chunks: int, i: int) -> range:
    """The paths of chunk ``i`` of ``chunks``, in path order: the sizes
    differ by at most one path, the larger ones first."""
    # Chunks of one size run back to back and reuse each other's freed
    # buffers; alternating sizes (1924, 1923, ...) raised the resident peak
    # of a 13-chunk run by 1.6 MiB.
    size, larger = divmod(n_paths, chunks)
    return range(i * size + min(i, larger), (i + 1) * size + min(i + 1, larger))


def _window_rows(n_delay: int, steps: int) -> int:
    """Rows of a ring window for spans of ``steps`` steps of its grid: the
    N + 1 nodes a step reads, or the span's nodes and the one before them
    that a fold reads, whichever is more."""
    return max(n_delay + 1, steps + 1)


def walk_plan(model, grid, lanes, n_paths, threads, *, fold_rows):
    """The chunks of a run and the longest span whose walk fits ``_WALK_BYTES``.

    ``n_paths`` paths of ``model`` run on ``threads`` workers, and ``grid``
    and ``lanes`` are those of :func:`walk_blocks`.  Per path, a chunk
    walked in spans of T steps holds 8 B times

    * each lane's ring window, max(N + 1, T / r + 1) rows;
    * the span's draw, T rows;
    * the two largest block sums, T / r rows each: a lane's sums live until
      the next coarser lane's are continued from them;
    * ``fold_rows(T)``, what the experiment's fold holds beside them, its
      own windows included; no fold holds a row per node of the horizon.

    T is a multiple of every lane's r and at most K.  A chunk holds at most
    ``_CHUNK`` paths, fewer only where even the shortest span, the least
    multiple of every r from min(K, ``_SHORTEST_SPAN``) on, would not fit so
    many.  The paths are split into ``threads * ceil(n_paths / (threads *
    chunk))`` chunks, or one per path, whose sizes differ by at most one
    path, so every worker gets the same number of chunks.  T is then the
    longest span that fits the largest chunk, and at least the shortest.
    The run has min(``threads``, ``n_paths``) workers.  Where the run has
    one worker and helper CPUs (:attr:`WalkPlan.draw_cpus` above one), a
    path holds one more span, T rows, beside the draw: the rows that
    :class:`~delay_cir.noise.DrawHelpers` fills while a span is marched.
    Temporaries of a byte per
    node, such as a march's check that its increments are finite, and
    buffers of a few rows are left out.  Every
    driver plans its walk first, so the run-size checks run here only, with
    the rule that ``grid`` is the model's (:func:`~delay_cir.model.check_grid`)
    and each lane's :func:`~delay_cir.scheme.check_implicit`, before any path.
    """
    check_grid(model, grid)
    check_path_count(n_paths)
    check_worker_count(threads)
    for lane_model, _, _ in lanes:
        scheme_mod.check_implicit(lane_model)
    ratios = [r for _, _, r in lanes]
    step = math.lcm(*ratios)
    spans = range(step, grid.n_steps + 1, step)
    shortest = min(len(spans), -(-_SHORTEST_SPAN // step))
    workers = min(threads, n_paths)
    draws = 2 if _draw_cpus(workers) > 1 else 1  # spans of rows a draw holds

    def per_path(span: int) -> int:
        rows = sum(_window_rows(g.n_per_delay, span // r) for _, g, r in lanes)
        rows += draws * span + sum(sorted(span // r for r in ratios if r > 1)[-2:])
        return 8 * (rows + fold_rows(span))

    cap = max(1, min(_CHUNK, _WALK_BYTES // per_path(spans[shortest - 1])))
    chunks = _chunk_count(n_paths, threads, cap)
    paths = -(-n_paths // chunks)
    fits = bisect.bisect_right(spans, _WALK_BYTES, key=lambda span: paths * per_path(span))
    span = spans[max(fits, shortest) - 1]
    return WalkPlan(
        model, grid, tuple(lanes), n_paths, chunks, span, paths,
        workers=workers, bytes=paths * per_path(span),
    )


# The plans of the map_paths calls made inside recorded_walks(), or None.
_walks: ContextVar[list | None] = ContextVar("walks", default=None)


@contextmanager
def recorded_walks():
    """Collect the :class:`WalkPlan` of every :func:`map_paths` call made in
    this context inside the ``with`` block, in call order; an enclosing
    block collects them too."""
    outer, walks = _walks.get(), []
    token = _walks.set(walks)
    try:
        yield walks
    finally:
        _walks.reset(token)
        if outer is not None:
            outer.extend(walks)


def map_paths(plan: WalkPlan, seed: int, reduce) -> Array:
    """Per-path results of ``reduce`` over the paths of ``plan``, in path order.

    ``reduce(draw, seg)`` gets a chunk's draw function and its initial-segment
    X values, shape (N+1, paths), and returns an array whose last axis runs
    over the chunk's paths (:func:`_gather`).  ``draw(start=0, stop=K)``
    returns the chunk's Brownian increments of steps start .. stop-1 on the
    plan's grid, shape (stop - start, paths), by
    :func:`delay_cir.noise.generate`, so any step range equals the same rows
    of the whole draw; ``draw.paths`` is the chunk's range of the run's
    paths and ``draw.windows`` its ring windows (:func:`walk_blocks`).  With
    :attr:`~WalkPlan.draw_cpus` above one, which only a walk in this process
    has, the draws run on one :class:`~delay_cir.noise.DrawHelpers`, and
    each draw fills the span of the plan that follows it while the chunk
    marches: the chunk's next, or the next chunk's first.  A forked worker
    draws on its own thread.

    The chunks are the plan's, which :func:`recorded_walks` collects.  With
    ``plan.processes == 1`` they run in this process.  Otherwise
    ``plan.processes`` worker processes are forked from this one (the
    ``fork`` start method, so Linux or another POSIX system): the plan's
    workers, but never more than the CPUs, while the chunks follow the
    workers asked for, so the results do not depend on the machine.
    Workers inherit ``reduce`` instead of receiving it pickled, and send
    back only each chunk's result.  An exception raised by a chunk reaches
    the caller with its type and message; when several chunks fail, the
    first in path order is raised, as in this process.  No helper thread
    is alive at the fork, nor once this returns or raises.
    """
    walks = _walks.get()
    if walks is not None:
        walks.append(plan)
    k, span = plan.grid.n_steps, plan.span
    # made once for every chunk; a forked worker inherits them untouched
    rows = [_window_rows(g.n_per_delay, span // r) for _, g, r in plan.lanes]
    windows = [np.empty((n, plan.paths)) for n in rows]

    def following(i: int, stop: int):
        """The span of the plan that a draw of chunk i up to step ``stop``
        fills ahead, as :attr:`~delay_cir.noise.DrawHelpers.then`."""
        if stop < k:
            return _chunk_paths(plan.n_paths, plan.chunks, i), stop, min(stop + span, k)
        if i + 1 < plan.chunks:
            return _chunk_paths(plan.n_paths, plan.chunks, i + 1), 0, min(span, k)
        return None

    def run(i: int, helpers=None) -> Array:
        paths = _chunk_paths(plan.n_paths, plan.chunks, i)

        def draw(start: int = 0, stop: int | None = None) -> Array:
            if helpers is not None:
                helpers.then = following(i, k if stop is None else stop)
            return noise_mod.generate(plan.grid, seed, paths, start, stop, helpers=helpers)

        draw.paths, draw.windows = paths, [w[:, : len(paths)] for w in windows]
        seg = noise_mod.sample_segment(plan.model.initial, plan.grid, seed, paths)
        return reduce(draw, seg)

    if plan.processes == 1:
        cpus = plan.draw_cpus
        with noise_mod.DrawHelpers(cpus) if cpus > 1 else nullcontext() as helpers:
            return _gather(plan.n_paths, (run(i, helpers) for i in range(plan.chunks)))
    # Imported here, before the fork, so the workers inherit them.
    import multiprocessing

    import scipy.special  # noqa: F401 - the draws' ndtri

    with multiprocessing.get_context("fork").Pool(
        plan.processes, initializer=_inherit_chunk_runner, initargs=(run,)
    ) as pool:
        # imap yields in chunk order, so a failure surfaces in path order
        return _gather(plan.n_paths, pool.imap(_run_inherited_chunk, range(plan.chunks)))


def _gather(n_paths: int, parts) -> Array:
    """The chunks' results ``parts``, in path order, written as they arrive
    into one array of the first's shape and dtype with ``n_paths`` paths."""
    out, lo = None, 0
    for part in parts:
        if out is None:
            out = np.empty(part.shape[:-1] + (n_paths,), part.dtype)
        out[..., lo : lo + part.shape[-1]] = part
        lo += part.shape[-1]
    return out


# The chunk runner of the map_paths call that forked this worker process.  The
# pool's initializer sets it from the arguments the fork copied, so the
# closure is never pickled; it stays None in the process that calls map_paths.
_chunk_runner = None


def _inherit_chunk_runner(run) -> None:
    global _chunk_runner
    _chunk_runner = run


def _run_inherited_chunk(i: int) -> Array:
    return _chunk_runner(i)


def walk_blocks(plan: WalkPlan, draw, seg, fold) -> None:
    """March a chunk over the steps of the plan's grid in spans, folding each span.

    ``draw`` is a chunk's draw of :func:`map_paths`: ``draw(k0, k1)`` gives
    a span's increments of steps k0 .. k1 - 1.  Each implicit lane ``(model,
    lane_grid, r)`` of ``plan.lanes`` continues
    :func:`~delay_cir.scheme.simulate_y_paths` on their sums over r steps
    from ``seg[::r]``; then ``fold(k0, increments, windows)`` may overwrite
    the increments.  The lanes march finest r first, and a lane's sums
    continue those of the lane before it, whose r must divide its own
    (:func:`~delay_cir.noise.block_sum`); the sums and the increments are
    dropped before the next draw.  ``windows`` are ``draw.windows``, the
    lanes' ring windows in the order of the lanes, each of
    :func:`_window_rows` rows for the plan's span and made once per walk.
    State that one experiment keeps across spans, such as another scheme's
    window, lives in its fold, in buffers made once per walk too.

    An X = Y^2 that leaves the float range stays off it (inf and NaN absorb
    in the march), so each span checks one row per lane, X at its last node,
    and :func:`_note_overflow` finds the first node of each path newly off
    it.  Once the chunk is walked, :class:`~delay_cir.model.OutOfRange`
    names the first such path, by its index in ``draw.paths``, its earliest
    such node on the plan's grid and that node's time, whatever the
    chunking.
    """
    grid, span = plan.grid, plan.span
    paths = seg.shape[1]
    marching = sorted(zip(plan.lanes, draw.windows), key=lambda lane: lane[0][2])
    off = np.full(paths, grid.n_steps + 1)
    for k0 in range(0, grid.n_steps, span):
        inc = draw(k0, min(k0 + span, grid.n_steps))
        sums, summed = inc, 1
        for (model, lane_grid, r), window in marching:
            if r != summed:
                sums = noise_mod.block_sum(inc, r, sums)
                summed = r
            scheme_mod.simulate_y_paths(
                model, lane_grid, sums, seg[::r], window=window, start=k0 // r
            )
            _note_overflow(window, lane_grid.n_per_delay, k0 // r, len(sums), r, off)
        del sums
        fold(k0, inc, draw.windows)
        del inc
    over = np.flatnonzero(off <= grid.n_steps)
    if over.size:
        i = over[0]
        raise OutOfRange(
            f"X = Y^2 leaves the float range at node {off[i]} "
            f"(path {draw.paths[i]}, t = {float(grid.time(off[i]))})"
        )


def _note_overflow(window, n_delay, lo, n, r, off) -> None:
    """Lower ``off[p]`` to r j for the first of the lane nodes j = lo + 1 ..
    lo + n that ``window`` holds where X = Y^2 of path p is not finite, for
    each path p that the walk has not found off the float range before step
    r lo and whose X is off it at node lo + n; one row is squared per node."""
    rows = len(window)
    with np.errstate(over="ignore"):
        last = np.square(window[(n_delay + lo + n) % rows])
        new = np.flatnonzero(~np.isfinite(last) & (off > r * lo))
        for j in range(lo + 1, lo + n + 1):
            if not new.size:
                break
            hit = ~np.isfinite(np.square(window[(n_delay + j) % rows, new]))
            off[new[hit]] = np.minimum(off[new[hit]], r * j)
            new = new[~hit]


def _lp_norm_and_jackknife(err: Array, p: float) -> tuple[float, float]:
    """(E[err^p])^{1/p} with its leave-one-out jackknife standard error."""
    n = err.size
    v = err**p
    total = float(np.sum(v))
    norm = (total / n) ** (1.0 / p)
    loo = ((total - v) / (n - 1)) ** (1.0 / p)
    center = float(np.mean(loo))
    return norm, math.sqrt((n - 1) / n * float(np.sum((loo - center) ** 2)))


def _mean_and_std_err(samples: Array) -> tuple[float, float]:
    """The sample mean and its standard error, sd / sqrt(n) with ddof = 1."""
    return float(np.mean(samples)), float(np.std(samples, ddof=1) / math.sqrt(samples.size))


def _line_fit(x: Array, y: Array) -> tuple[float, float, float]:
    """(slope, intercept, r^2) of the OLS line of y on x; r^2 = 1 for constant y."""
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return float(slope), float(intercept), 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


def _cell_weights(n_nodes: int, r: int, first: int = 1) -> Array:
    """Rows (1 - w, w) of fine nodes first .. first + n_nodes - 1 in their
    coarse cell (t_c, t_{c+1}] of r fine steps, shape (n_nodes, 2); w = 1 at
    the cell's right end, and each row has the bits its node alone gives."""
    nodes = np.arange(first, first + n_nodes)
    # k / r - c, not (k - c r) / r: the rounding every recorded product has
    w = nodes / r - (nodes - 1) // r
    return np.stack((1.0 - w, w), axis=-1)


# Fine rows per piece of the error fold: a piece's temporaries stay in a
# core's cache.
_FOLD_ROWS = 32


def _fold_cell_errors(x_fine, x_coarse, weights, grid_max, uniform_max):
    """Fold the errors of one level over whole coarse cells into per-path maxima.

    ``x_coarse`` holds coarse nodes c .. c + m, shape (m + 1, paths), and
    ``x_fine`` the m r fine nodes of the cells (t_c, t_{c+m}], shape (m r,
    paths); ``weights`` holds the fine nodes' rows (1 - w, w) in their cell,
    shape (m r, 2), with w = 1 at a cell's right end (:func:`_cell_weights`).
    The uniform error compares every fine node with the coarse interpolant,
    the grid error the coarse nodes c+1 .. c+m with the fine nodes on them,
    which are its rows at w = 1.  The errors are folded piece by piece, a
    piece being a run of whole cells or, for cells longer than
    ``_FOLD_ROWS``, part of one cell.

    A piece's interpolant (1 - w) left + w right is one ``np.einsum`` of its
    weight rows with its cells' end pairs (c, c + 1), a view of ``x_coarse``,
    written into one buffer of ``_FOLD_ROWS`` rows allocated once per call;
    the subtract and abs then run in place, and each piece reduces into one
    reused row.  The values equal the broadcast products and their sum bit
    for bit: einsum adds each product in turn to a zeroed output, fl(fl(0 +
    p0) + p1) = fl(p0 + p1) for p0 >= +0 (X = Y^2 and both weights lie in
    [0, 1]), so the interpolant is x_{c+1} exactly at w = 1.  Maxima do not
    depend on their order.
    """
    cells = x_coarse.shape[0] - 1
    r = x_fine.shape[0] // cells
    paths = x_coarse.shape[1]
    per_piece = max(1, _FOLD_ROWS // r)
    part = min(r, _FOLD_ROWS)
    # ends[c] holds the rows x_c, x_{c+1}, without a copy
    ends = sliding_window_view(x_coarse, 2, axis=0).transpose(0, 2, 1)
    buffer = np.empty(per_piece * part * paths)
    row = np.empty(paths)
    for c0 in range(0, cells, per_piece):
        c1 = min(c0 + per_piece, cells)
        span = slice(c0 * r, c1 * r)
        fine_cells = x_fine[span].reshape(c1 - c0, r, paths)
        cell_weights = weights[span].reshape(c1 - c0, r, 2)
        for i0 in range(0, r, part):
            rows = slice(i0, min(i0 + part, r))
            fine = fine_cells[:, rows]
            on_fine = buffer[: fine.size].reshape(fine.shape)
            np.einsum("cjw,cwp->cjp", cell_weights[:, rows], ends[c0:c1], out=on_fine)
            np.subtract(fine, on_fine, out=on_fine)
            np.abs(on_fine, out=on_fine)
            np.maximum.reduce(on_fine.reshape(-1, paths), axis=0, out=row)
            np.maximum(uniform_max, row, out=uniform_max)
            if rows.stop == r:
                np.maximum.reduce(on_fine[:, -1], axis=0, out=row)
                np.maximum(grid_max, row, out=grid_max)


# ---------------------------------------------------------------------------
# strong error study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorRow:
    delta: float
    p: float
    grid_error: float
    uniform_error: float
    std_err: float
    uniform_std_err: float
    n_paths: int


@dataclass(frozen=True)
class ErrorTable:
    rows: tuple[ErrorRow, ...]
    n_ref: int
    seed: int


# The levels, and so the rows per order, that a rate fit needs.
_FIT_LEVELS = 3


def _delta_log_delta(delta: float) -> float:
    """delta |log delta|, the modulus-of-continuity scale of a step delta;
    zero at delta = 1, where no fit on a log scale can use it."""
    return delta * abs(math.log(delta))


def check_levels(model: ModelSpec, n_list, n_ref, p_list, *, fit: bool = False) -> None:
    """Raise unless :func:`strong_error_study` accepts the model, levels and orders.

    ``model`` must pass :func:`validate` and the strict Feller condition,
    ``n_list`` must hold one or more positive integers that increase, each
    dividing the next, ``n_ref`` must be a proper multiple of its largest
    entry with finite steps (horizon - t0) N_ref / tau, both must convert to
    floats, and every p must lie in (0, p_max) of the model's report.  With ``fit``,
    ``n_list`` must also hold the three levels that :func:`fit_rate` needs,
    three with a step tau / N other than 1 (:func:`_delta_log_delta`).
    A level or order error (``ValueError`` for no levels,
    :class:`~delay_cir.noise.NotNested`,
    :class:`InsufficientRows`, :class:`~delay_cir.model.OutOfRange` or
    :class:`PRequestedTooLarge`) names the rejected argument in its
    ``argument`` attribute: ``"n_list"``, ``"n_ref"`` or ``"p_list"``.
    """
    report = validate(model)
    if not report.strong_feller_ok:
        raise StrongFellerViolated("strong error study requires sigma^2 < 2 a inf(gamma)")
    if not len(n_list):
        raise rejected(ValueError, "n_list", "empty list")
    if any(n < 1 for n in n_list):
        raise rejected(noise_mod.NotNested, "n_list", "entries must be positive integers")
    for small, big in zip(n_list, n_list[1:]):
        if big <= small or big % small:
            raise rejected(
                noise_mod.NotNested, "n_list", "must increase, each entry dividing the next"
            )
    if fit and len(n_list) < _FIT_LEVELS:
        raise rejected(InsufficientRows, "n_list", "a rate fit needs at least three levels")
    check_fits_float("n_list", n_list[-1])
    if fit and sum(_delta_log_delta(model.tau / n) > 0.0 for n in n_list) < _FIT_LEVELS:
        raise rejected(
            InsufficientRows, "n_list", "a rate fit needs three levels whose step tau / N is not 1"
        )
    if n_ref <= n_list[-1] or n_ref % n_list[-1]:
        raise rejected(
            noise_mod.NotNested, "n_ref", "must be a proper multiple of max(N_list)"
        )
    check_fits_float("n_ref", n_ref)
    if not math.isfinite((model.horizon - model.t0) * n_ref / model.tau):
        raise rejected(OutOfRange, "n_ref", "(horizon - t0) N_ref / tau leaves the float range")
    if any(not p > 0.0 for p in p_list):
        raise rejected(PRequestedTooLarge, "p_list", "entries must be positive")
    for p in p_list:
        if p >= report.p_max:
            raise rejected(
                PRequestedTooLarge, "p_list", f"{p:.17g} is not below p_max = {report.p_max:.17g}"
            )


def strong_error_study(
    model: ModelSpec,
    n_list,
    n_ref: int,
    n_paths: int,
    p_list,
    seed: int,
    threads: int = 1,
) -> ErrorTable:
    """Coupled strong-error table of the drift-implicit scheme.

    Every coarse level N in ``n_list`` shares the Brownian path of the
    reference level ``n_ref`` via exact block sums; errors are pathwise sups,
    reported as L^p Monte Carlo norms with jackknife standard errors (the
    ``std_err`` column belongs to the grid error).

    Expected orders: about one for the grid error (additive noise after the
    transform) and 1/2 up to a log factor for the uniform error (the paper's
    result for the piecewise-linear interpolant); see :func:`fit_rate`.  The
    reference has an error of its own: with ``n_ref / max(n_list) = 8`` (the
    CLI default, 1024 over 128) it tilts the grid slope up by a few
    hundredths -- 0.984 at ``n_ref`` 1024 against 0.961 at 4096, same seed
    and 10^4 paths.

    The reference and the coarse levels are lanes of :func:`walk_blocks`,
    whose spans :func:`walk_plan` sizes to a multiple of every ratio; the
    fold holds the coarse X, the cell weights and one error-fold piece of a span.

    The model, ``n_list``, ``n_ref`` and ``p_list`` must pass :func:`check_levels`.
    """
    n_list = [int(n) for n in n_list]
    p_list = [float(p) for p in p_list]
    check_levels(model, n_list, n_ref, p_list)

    fine_grid = build_grid(model, n_ref)
    coarse_grids = [build_grid(model, n) for n in n_list]
    ratios = [n_ref // n for n in n_list]
    lanes = [(model, fine_grid, 1), *((model, g, r) for g, r in zip(coarse_grids, ratios))]
    # a span holds whole cells of every level, the coarsest ratio's included
    plan = walk_plan(
        model, fine_grid, lanes, n_paths, threads,
        fold_rows=lambda span: 2 * len(n_list) + span // ratios[-1] + 1 + _FOLD_ROWS + 1,
    )
    x_coarse = np.empty((plan.span // ratios[-1] + 1, plan.paths))  # for every chunk

    def errors(draw, seg: Array) -> Array:
        """Rows 2i, 2i+1: grid and uniform errors of level n_list[i].

        Node 0 is left out: every level starts from the same value there.
        """
        out = np.zeros((2 * len(n_list), seg.shape[1]))

        def fold(k0, inc, windows):
            # the increments are spent: their rows take the span's fine X
            x_fine = scheme_mod.square_rows(windows[0], n_ref + k0 + 1, inc.shape[0], out=inc)
            for i, (grid_c, r) in enumerate(zip(coarse_grids, ratios)):
                x_c = scheme_mod.square_rows(
                    windows[1 + i], grid_c.n_per_delay + k0 // r,
                    x_fine.shape[0] // r + 1, out=x_coarse[:, : inc.shape[1]],
                )
                weights = _cell_weights(x_fine.shape[0], r, k0 + 1)
                _fold_cell_errors(x_fine, x_c, weights, out[2 * i], out[2 * i + 1])

        walk_blocks(plan, draw, seg, fold)
        return out

    err = map_paths(plan, seed, errors)
    rows = []
    for p in p_list:
        for i, n in enumerate(n_list):
            g_norm, g_se = _lp_norm_and_jackknife(err[2 * i], p)
            u_norm, u_se = _lp_norm_and_jackknife(err[2 * i + 1], p)
            rows.append(
                ErrorRow(
                    delta=coarse_grids[i].delta,
                    p=p,
                    grid_error=g_norm,
                    uniform_error=u_norm,
                    std_err=g_se,
                    uniform_std_err=u_se,
                    n_paths=n_paths,
                )
            )
    return ErrorTable(rows=tuple(rows), n_ref=n_ref, seed=seed)


@dataclass(frozen=True)
class RateFit:
    p: float
    variant: str
    slope: float
    intercept: float
    r_squared: float


def fit_rate(table: ErrorTable, p: float, variant: str = "plain_delta") -> RateFit:
    """OLS rate fit over the table rows of order ``p``.

    ``plain_delta`` regresses log(grid error) on log(delta); at the grid nodes
    the transformed scheme has additive noise, and its slope is close to one
    when the Feller index 2 a gamma / sigma^2 is large (strong order one of
    drift-implicit Euler on Y = sqrt(X); Alfonsi 2013, Neuenkirch & Szpruch
    2014).  ``delta_log_delta`` regresses log(uniform error) on
    log(delta |log delta|), the modulus-of-continuity scale of the
    interpolated paths, over the rows where that scale is not zero (not
    delta = 1); its slope is close to 1/2, the paper's order in the uniform
    norm up to a log factor.
    """
    rows = [r for r in table.rows if r.p == p]
    if variant == "plain_delta":
        points = [(math.log(r.delta), r.grid_error) for r in rows]
    elif variant == "delta_log_delta":
        scaled = [(_delta_log_delta(r.delta), r.uniform_error) for r in rows]
        points = [(math.log(scale), err) for scale, err in scaled if scale > 0.0]
    else:
        raise ValueError(f"unknown fit variant {variant!r}")
    if len(points) < _FIT_LEVELS:
        raise InsufficientRows(f"need >= {_FIT_LEVELS} rows at p={p}, got {len(points)}")
    x, y_vals = np.array([point[0] for point in points]), [point[1] for point in points]
    if min(y_vals) <= 0.0:
        raise InsufficientRows(f"cannot fit a rate through zero errors at p={p}")
    return RateFit(p, variant, *_line_fit(x, np.log(y_vals)))


# ---------------------------------------------------------------------------
# mean consistency
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeanCheckRow:
    t: float
    mc_mean: float
    oracle_mean: float
    z: float


def checkpoint_indices(model: ModelSpec, grid: TimeGrid, checkpoints) -> list[int]:
    """Grid indices of ``checkpoints``; raises :class:`GridMisaligned` unless
    every entry is a grid node in [t0, T], and ``ValueError`` for t0 under a
    deterministic start of ``model``, where every path holds X0 and the
    standard error is zero.  Either error's ``argument`` is ``"checkpoints"``."""
    out = []
    for t in checkpoints:
        rel = (float(t) - grid.t0) / grid.delta
        k = round(rel) if math.isfinite(rel) else -1  # no node for an infinite ratio
        if off_grid(rel, k) or not 0 <= k <= grid.n_steps:
            raise rejected(
                GridMisaligned, "checkpoints", f"checkpoint {t} is not a grid node in [t0, T]"
            )
        if k == 0 and not model.initial.is_random:
            raise rejected(
                ValueError, "checkpoints",
                f"checkpoint {t} is t0, where a deterministic start has no spread",
            )
        out.append(k)
    return out


def mean_consistency_check(
    model: ModelSpec,
    grid: TimeGrid,
    n_paths: int,
    checkpoints,
    seed: int,
    threads: int = 1,
) -> tuple[MeanCheckRow, ...]:
    """z-scores of the Monte Carlo mean against the analytic mean.

    The oracle is the b = 0 closed form when it applies (constant gamma, no
    delay feedback) and the quadrature mean curve otherwise; in both cases the
    initial level is E[X0].  z = (MC mean - oracle) / (sample sd / sqrt(n));
    a standard error that is not finite raises :class:`OutOfRange`.
    """
    validate(model)
    check_grid(model, grid)
    ks = checkpoint_indices(model, grid, checkpoints)
    lanes = [(model, grid, 1)]
    plan = walk_plan(model, grid, lanes, n_paths, threads, fold_rows=lambda span: len(ks))

    def at_checkpoints(draw, seg: Array) -> Array:
        out = np.empty((len(ks), seg.shape[1]))

        def fold(k0, inc, windows):
            for j, k in enumerate(ks):
                if k0 <= k <= k0 + inc.shape[0]:
                    np.square(windows[0][(grid.n_per_delay + k) % len(windows[0])], out=out[j])

        walk_blocks(plan, draw, seg, fold)
        return out

    samples = map_paths(plan, seed, at_checkpoints)

    if model.b == 0.0 and model.gamma.kind == "constant":
        params = CIRParams.from_model(model)
        oracle = [classical_mean(params, float(grid.time(k))) for k in ks]
    else:
        curve = mean_delay_curve(model, grid)
        oracle = [float(curve.means[k]) for k in ks]

    rows = []
    for j, k in enumerate(ks):
        mc, se = _mean_and_std_err(samples[j])
        if not math.isfinite(se):
            raise OutOfRange(f"the standard error at checkpoint t = {grid.time(k)} is {se}")
        rows.append(
            MeanCheckRow(
                t=float(grid.time(k)),
                mc_mean=mc,
                oracle_mean=oracle[j],
                z=(mc - oracle[j]) / se,
            )
        )
    return tuple(rows)


# ---------------------------------------------------------------------------
# censuses
# ---------------------------------------------------------------------------


def check_comparable(model_upper: ModelSpec, model_lower: ModelSpec, grid: TimeGrid):
    """Raise :class:`IncomparableModels` unless the pathwise comparison applies.

    The models must share (a, sigma, tau, t0, horizon) and the initial
    segment, with b_lower = 0 <= b_upper and gamma_upper >= gamma_lower at
    every grid node, which must be the upper model's (:func:`check_grid`);
    both must pass :func:`validate` and ``check_implicit``.  The upper model
    and the grid are checked first; every error after their checks names
    ``"model_lower"`` as its ``argument``.
    """
    validate(model_upper)
    scheme_mod.check_implicit(model_upper)
    check_grid(model_upper, grid)
    try:
        same = all(
            getattr(model_upper, f) == getattr(model_lower, f)
            for f in ("a", "sigma", "tau", "t0", "horizon")
        )
        if not same or model_upper.initial != model_lower.initial:
            raise IncomparableModels(
                "models must share a, sigma, tau, t0, horizon and the initial segment"
            )
        if model_lower.b != 0.0 or model_upper.b < 0.0:
            raise IncomparableModels("need b_lower = 0 and b_upper >= 0")
        times = grid.times()
        g_upper = np.asarray(model_upper.gamma_at(times))
        g_lower = np.asarray(model_lower.gamma_at(times))
        if np.any(g_upper < g_lower):
            raise IncomparableModels("need gamma_upper >= gamma_lower on the grid")
        validate(model_lower)
        scheme_mod.check_implicit(model_lower)
    except ValueError as exc:
        exc.argument = "model_lower"
        raise


def comparison_census(
    model_upper: ModelSpec,
    model_lower: ModelSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    threads: int = 1,
) -> int:
    """Count pathwise ordering violations y_upper < y_lower on shared noise.

    Requires the preconditions of :func:`check_comparable`; under them the
    implicit update is monotone in its forcing, so the count should be zero.
    Both models are lanes of :func:`walk_blocks`, and each span's
    violations are counted per path.
    """
    check_comparable(model_upper, model_lower, grid)
    lanes = [(model_upper, grid, 1), (model_lower, grid, 1)]
    plan = walk_plan(model_upper, grid, lanes, n_paths, threads, fold_rows=lambda span: 1)

    def violations(draw, seg: Array) -> Array:
        count = np.zeros(seg.shape[1], dtype=np.intp)

        def fold(k0, inc, windows):
            y_up, y_lo = windows
            # both windows start from the same segment nodes -N .. 0, so only
            # the span's new nodes can differ
            for span in scheme_mod.ring_spans(len(y_up), grid.n_per_delay + k0 + 1, len(inc)):
                count[:] += np.count_nonzero(y_up[span] < y_lo[span], axis=0)

        walk_blocks(plan, draw, seg, fold)
        return count

    return int(np.sum(map_paths(plan, seed, violations)))


@dataclass(frozen=True)
class CensusRow:
    scheme: str
    fraction_nonpositive: float
    n_paths: int


def positivity_census(
    schemes,
    model: ModelSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    threads: int = 1,
) -> tuple[CensusRow, ...]:
    """Per scheme, the fraction of paths with any node value x_k <= 0, k >= 0.

    One row per name in ``schemes``, in that order; every scheme marches on
    the same noise.  The implicit scheme is a lane of :func:`walk_blocks`.
    The fold marches one explicit row in a ring window of its own: the
    symmetrized scheme's if it is asked for, else the truncated one's.  A
    symmetrized row of updates v carries both baselines
    (:func:`~delay_cir.scheme.explicit_paths`): a path's truncated flag is
    any v <= 0, its symmetrized flag any v == 0.  Each span's flags are
    folded into per-path booleans.  The row is marched with NumPy's overflow
    and invalid-value warnings off; where it blew up, to inf and then NaN,
    one ``RuntimeWarning`` names the marched scheme and the count of such
    paths, whatever the worker count.
    """
    names = tuple(schemes)
    validate(model)
    if not names:
        raise rejected(ValueError, "scheme", "empty list")
    scheme_mod.check_baselines([name for name in names if name != "implicit"], model)
    n_delay = grid.n_per_delay
    explicit = next((name for name in ("symmetrized", "truncated") if name in names), None)
    lanes = [(model, grid, 1)] if "implicit" in names else []
    # the flags, and the explicit row's window of max(N + 1, T + 1) rows
    plan = walk_plan(
        model, grid, lanes, n_paths, threads,
        fold_rows=lambda span: 1 + (explicit is not None) * _window_rows(n_delay, span),
    )
    rows = _window_rows(n_delay, plan.span)  # the implicit lane's too
    explicit_rows = np.empty((rows if explicit else 0, plan.paths))  # for every chunk

    def census(draw, seg: Array) -> Array:
        flags = {name: np.zeros(seg.shape[1], dtype=bool) for name in names}
        x = explicit_rows[:, : seg.shape[1]]

        # Node 0 is the segment's last node, positive in every scheme (the
        # implicit one holds sqrt(x) with sqrt(x)^2 >= 2^-1074 for x > 0), so
        # only the nodes 1 .. K that each span adds are flagged.  The minima
        # are fmin's, which skips NaN: a plain min would return the NaN of a
        # blown-up path and hide a crossing earlier in the same span.
        def fold(k0, inc, windows):
            if explicit:
                with np.errstate(over="ignore", invalid="ignore"):
                    scheme_mod.explicit_paths(model, grid, inc, seg, explicit, window=x, start=k0)
            for span in scheme_mod.ring_spans(rows, n_delay + k0 + 1, len(inc)):
                if "truncated" in flags:
                    flags["truncated"] |= np.fmin.reduce(x[span], axis=0, initial=np.inf) <= 0.0
                if explicit == "symmetrized":
                    flags["symmetrized"] |= np.any(x[span] == 0.0, axis=0)
                if lanes:
                    # Y >= +0 in both root forms, and squaring is monotone
                    # there, so the least X of a span is its least Y squared
                    y_min = np.fmin.reduce(windows[0][span], axis=0, initial=np.inf)
                    flags["implicit"] |= np.square(y_min) <= 0.0

        walk_blocks(plan, draw, seg, fold)
        per_path = [flags[name] for name in names]
        if explicit:
            # NaN absorbs in both explicit recursions, so a path that ever
            # left the float range ends off it
            per_path.append(~np.isfinite(x[(n_delay + grid.n_steps) % rows]))
        return np.stack(per_path)

    flagged = np.count_nonzero(map_paths(plan, seed, census), axis=1)
    if explicit and flagged[-1]:
        warnings.warn(
            f"the {explicit} Euler baseline of the positivity census overflowed "
            f"on {flagged[-1]} of {n_paths} paths",
            RuntimeWarning,
            stacklevel=2,
        )
    return tuple(
        CensusRow(scheme=name, fraction_nonpositive=int(f) / n_paths, n_paths=n_paths)
        for name, f in zip(names, flagged)
    )


# ---------------------------------------------------------------------------
# modulus of continuity and survival functional
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModulusRow:
    delta: float
    modulus: float


@dataclass(frozen=True)
class ModulusResult:
    rows: tuple[ModulusRow, ...]
    p: float
    slope: float


def modulus_lags(grid: TimeGrid, delta_list) -> list[int]:
    """Grid-step lags of ``delta_list``; raises :class:`GridMisaligned` unless
    every entry is a whole number of grid steps in (0, T - t0], and
    ``ValueError`` for no entry, naming ``"delta_list"`` as its ``argument``."""
    lags = []
    for d in delta_list:
        rel = float(d) / grid.delta
        lag = round(rel) if math.isfinite(rel) else 0  # no lag for an infinite ratio
        if lag < 1 or off_grid(rel, lag) or lag > grid.n_steps:
            raise rejected(
                GridMisaligned, "delta_list",
                f"modulus delta {d} must be a whole number of grid steps in (0, T - t0]",
            )
        lags.append(lag)
    if not lags:
        raise rejected(ValueError, "delta_list", "empty list")
    return lags


def modulus_scaling(
    model: ModelSpec,
    grid: TimeGrid,
    n_paths: int,
    delta_list,
    seed: int,
    p: float = 1.0,
    threads: int = 1,
) -> ModulusResult:
    """L^p norms of the pathwise modulus of continuity w(delta) of the interpolant.

    w(delta) = sup over |t - s| <= delta of |Xhat(t) - Xhat(s)| over [t0, T];
    for lags that are whole numbers of grid steps the sup is attained at node
    pairs, so the computation is exact.  The reported slope is the OLS slope
    of log E[w^p]^{1/p} against log sqrt(delta |log delta|), the scale on
    which the modulus of a square-root diffusion grows linearly, over the
    rows where that scale is not zero (not delta = 1); NaN below two rows.
    Each span of :func:`walk_blocks` adds the node pairs that end in it to
    per-lag maxima, its fold keeping the largest lag's nodes before it.
    """
    validate(model)
    if not 0.0 < p < math.inf:
        raise rejected(ValueError, "p", f"the modulus order must be positive and finite, got {p}")
    check_grid(model, grid)
    lags = modulus_lags(grid, delta_list)
    distinct = sorted(set(lags))
    n_delay, back = grid.n_per_delay, distinct[-1]
    lanes = [(model, grid, 1)]
    # per-lag maxima, the X of a span and the L nodes before it, one row of |d|
    plan = walk_plan(
        model, grid, lanes, n_paths, threads, fold_rows=lambda span: 2 * back + span + 1
    )
    # row i holds node k0 + 1 - L + i, the L nodes before a span first.
    # Nodes before 0 hold X_0: a pair (0, t) counted at a lag above t is
    # also counted at t, so the running max over lags keeps its bits.
    x_rows = np.empty((back + plan.span, plan.paths))  # for every chunk

    def moduli(draw, seg: Array) -> Array:
        """Row j: the modulus at lag distinct[j], a running max over lags."""
        per_lag = np.zeros((back, seg.shape[1]))
        x = x_rows[:, : seg.shape[1]]

        def fold(k0, inc, windows):
            n = len(inc)
            if k0 == 0:
                x[:back] = scheme_mod.square_rows(windows[0], n_delay, 1, out=x[back - 1 :])
            scheme_mod.square_rows(windows[0], n_delay + k0 + 1, n, out=x[back:])
            for lag in range(1, back + 1):
                # pairs (t - lag, t), k0 < t <= k0 + n, one per increment row
                d = np.subtract(x[back : back + n], x[back - lag : back - lag + n], out=inc)
                row = per_lag[lag - 1]
                np.maximum(row, np.max(np.abs(d, out=d), axis=0), out=row)
            x[:back] = x[n : n + back]

        walk_blocks(plan, draw, seg, fold)
        return np.maximum.accumulate(per_lag)[[lag - 1 for lag in distinct]]

    w = map_paths(plan, seed, moduli)
    rows = []
    for lag in sorted(lags):
        norm, _ = _lp_norm_and_jackknife(w[distinct.index(lag)], p)
        rows.append(ModulusRow(delta=lag * grid.delta, modulus=norm))
    fit = [r for r in rows if _delta_log_delta(r.delta) > 0.0]
    xs = np.array([math.log(math.sqrt(_delta_log_delta(r.delta))) for r in fit])
    ys = np.array([math.log(r.modulus) for r in fit])
    slope = _line_fit(xs, ys)[0] if len(fit) >= 2 else math.nan
    return ModulusResult(rows=tuple(rows), p=p, slope=slope)


@dataclass(frozen=True)
class SurvivalEstimate:
    value: float
    std_err: float
    n_paths: int


def survival_probability(
    model: ModelSpec, grid: TimeGrid, n_paths: int, seed: int, threads: int = 1
) -> SurvivalEstimate:
    """Monte Carlo E[exp(-integral_t0^T X(t) dt)] via exact trapezoid integration.

    The integral of the piecewise-linear interpolant is exactly the trapezoid
    rule over the nodes, so the only approximations are the scheme itself and
    Monte Carlo averaging.  Each span of :func:`walk_blocks` adds its nodes'
    X to one running row per path in node order, 1/2 x_0, x_1, ..., 1/2 x_K
    (exact halvings), so no plan moves a bit, and the fold holds that row only.
    """
    validate(model)
    lanes = [(model, grid, 1)]
    plan = walk_plan(model, grid, lanes, n_paths, threads, fold_rows=lambda span: 1)

    def discounted(draw, seg: Array) -> Array:
        total = 0.5 * np.square(np.sqrt(seg[-1]))  # x_0 as the march's Y_0 squares

        def fold(k0, inc, windows):
            x = scheme_mod.square_rows(windows[0], grid.n_per_delay + k0 + 1, len(inc), out=inc)
            if k0 + len(x) == grid.n_steps:
                x[-1] *= 0.5
            for row in x:
                np.add(total, row, out=total)

        walk_blocks(plan, draw, seg, fold)
        return np.exp(-(grid.delta * total))

    vals = map_paths(plan, seed, discounted)
    return SurvivalEstimate(*_mean_and_std_err(vals), n_paths=n_paths)


def classical_variant(model: ModelSpec, gamma_level: float | None = None) -> ModelSpec:
    """The b = 0 comparison model: same parameters, optionally flat gamma."""
    gamma = model.gamma if gamma_level is None else GammaSpec.constant(gamma_level)
    return replace(model, b=0.0, gamma=gamma)
