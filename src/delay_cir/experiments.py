"""Monte Carlo experiments: strong-convergence rates, consistency checks, censuses.

The central experiment couples every coarse resolution to one fine reference
path through shared Brownian increments (exact block sums, see
``delay_cir.noise``) and reports L^p norms of the pathwise sup errors:

* grid error      max over coarse nodes of |x_ref(t_k) - x_k|,
* uniform error   max over *fine* nodes of |Xhat_ref(t) - Xhat(t)|; both
                  interpolants are affine between fine nodes, so the fine-node
                  maximum is the exact sup over [t0, T].

Every experiment runs chunks of at most ``_CHUNK`` paths through
:func:`map_paths`, in-process or on forked workers, and walks each chunk
time-major in time blocks (:func:`walk_blocks`) into per-path results,
assembled in path order.  Monte Carlo aggregation sums them pairwise with
numpy, so results do not depend on chunking or on the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import noise as noise_mod
from . import scheme as scheme_mod
from .cir_analytics import (
    CIRParams,
    StrongFellerViolated,
    classical_mean,
    mean_delay_curve,
)
from .model import GammaSpec, GridMisaligned, ModelSpec, OutOfRange, TimeGrid, build_grid, validate

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
    "map_paths",
    "strong_error_study",
    "check_levels",
    "fit_rate",
    "checkpoint_indices",
    "mean_consistency_check",
    "check_comparable",
    "comparison_census",
    "check_schemes",
    "positivity_census",
    "modulus_lags",
    "modulus_scaling",
    "survival_probability",
    "PRequestedTooLarge",
    "InsufficientRows",
    "IncomparableModels",
]

_CHUNK = 2048

# Steps per time block of walk_blocks; the strong-error study rounds it up to
# a multiple of every level ratio n_ref / N.
_BLOCK_STEPS = 256


class PRequestedTooLarge(ValueError):
    """A requested L^p order is outside the range backed by the conditions."""


class InsufficientRows(ValueError):
    """Not enough table rows to fit a rate."""


class IncomparableModels(ValueError):
    """The two models do not satisfy the pathwise-comparison preconditions."""


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def map_paths(model, grid, seed, n_paths, reduce, threads=1):
    """Per-path results of ``reduce`` over paths 0 .. n_paths-1, in path order.

    ``reduce(draw, seg)`` gets a chunk's draw function and its initial-segment
    X values, shape (N+1, paths), and returns an array whose last axis runs
    over the chunk's paths.  ``draw(start=0, stop=K)`` returns the chunk's
    Brownian increments of steps start .. stop-1 on ``grid``, shape
    (stop - start, paths): :func:`delay_cir.noise.generate`, so any step
    range equals the same rows of the whole draw.

    With ``threads == 1`` the chunks, of ``_CHUNK`` paths, run in this process.
    Otherwise ``threads`` is a count of worker processes forked from this one
    (the ``fork`` start method, so Linux or another POSIX system): the paths
    are split into ``threads * ceil(n_paths / (threads * _CHUNK))`` chunks
    whose sizes differ by at most one path, so every worker gets the same
    number of chunks and none holds more than ``_CHUNK`` paths.  Workers
    inherit ``reduce`` instead of receiving it pickled, and send back only
    each chunk's result.  An exception raised by a chunk reaches the caller
    with its type and message; when several chunks fail, the first in path
    order is raised, as in this process.  A march's
    :class:`~delay_cir.scheme.NonPositiveForcing` is raised once every chunk
    has run: of the chunks' failures, the one at the earliest node and, there,
    at the smallest path index of the run, so that it does not depend on the
    chunking either.
    """

    def run(lo: int, hi: int) -> Array:
        paths = range(lo, hi)

        def draw(start: int = 0, stop: int | None = None) -> Array:
            return noise_mod.generate(grid, seed, paths, start, stop)

        seg = noise_mod.sample_segment(model.initial, grid, seed, paths)
        try:
            return reduce(draw, seg)
        except scheme_mod.NonPositiveForcing as exc:
            if exc.path is None:
                raise
            # returned, not raised: the other chunks run on, and the
            # earliest failure of all is raised below
            exc.path += lo
            return exc

    if threads == 1:
        parts = [run(lo, min(lo + _CHUNK, n_paths)) for lo in range(0, n_paths, _CHUNK)]
    else:
        # Imported here, before the fork, so the workers inherit them.
        import multiprocessing

        import scipy.special  # noqa: F401 - the draws' ndtri

        n_chunks = min(n_paths, threads * math.ceil(n_paths / (threads * _CHUNK)))
        bounds = [
            (i * n_paths // n_chunks, (i + 1) * n_paths // n_chunks)
            for i in range(n_chunks)
        ]
        with multiprocessing.get_context("fork").Pool(
            min(threads, n_chunks), initializer=_inherit_chunk_runner, initargs=(run,)
        ) as pool:
            # imap yields in chunk order, so a failure surfaces in path order
            parts = list(pool.imap(_run_inherited_chunk, bounds))
    failed = [part for part in parts if isinstance(part, scheme_mod.NonPositiveForcing)]
    if failed:
        raise min(failed, key=lambda exc: (exc.node, exc.path))
    return np.concatenate(parts, axis=-1)


# The chunk runner of the map_paths call that forked this worker process.  The
# pool's initializer sets it from the arguments the fork copied, so the
# closure is never pickled; it stays None in the process that calls map_paths.
_chunk_runner = None


def _inherit_chunk_runner(run) -> None:
    global _chunk_runner
    _chunk_runner = run


def _run_inherited_chunk(bounds: tuple[int, int]) -> Array:
    return _chunk_runner(*bounds)


def walk_blocks(grid, draw, seg, fold, lanes, explicit=None, block=_BLOCK_STEPS, back=0):
    """March a chunk over the steps of ``grid`` in blocks, folding each block.

    ``draw(k0, k1)`` gives a block's increments of steps k0 .. k1 - 1.  Each
    implicit lane ``(model, lane_grid, r)`` continues
    :func:`~delay_cir.scheme.simulate_y_paths` on their sums over r steps
    from ``seg[::r]``, the baselines ``explicit = (model, schemes)``
    :func:`~delay_cir.scheme.explicit_paths`; then ``fold(k0, increments,
    windows)`` may overwrite the increments, which are dropped before the
    next draw.  ``windows`` are the lanes' ring windows, the baselines' last,
    each of N + 1 + ``back`` + min(block, K) / r nodes: the block's, the N a
    step reads before them and ``back`` more, whatever the horizon.  The
    ``block`` must be a multiple of every r.
    """
    span, paths = min(block, grid.n_steps), seg.shape[1]
    windows = [np.empty((g.n_per_delay + 1 + back + span // r, paths)) for _, g, r in lanes]
    if explicit is not None:
        windows.append(np.empty((grid.n_per_delay + 1 + back + span, len(explicit[1]), paths)))
    for k0 in range(0, grid.n_steps, block):
        inc = draw(k0, min(k0 + block, grid.n_steps))
        for (model, lane_grid, r), window in zip(lanes, windows):
            scheme_mod.simulate_y_paths(
                model, lane_grid, inc if r == 1 else noise_mod.block_sum(inc, r),
                seg[::r], window=window, start=k0 // r,
            )
        if explicit is not None:
            scheme_mod.explicit_paths(
                explicit[0], grid, inc, seg, explicit[1], window=windows[-1], start=k0
            )
        fold(k0, inc, windows)
        del inc


def _lp_norm_and_jackknife(err: Array, p: float) -> tuple[float, float]:
    """(E[err^p])^{1/p} with its leave-one-out jackknife standard error."""
    n = err.size
    v = err**p
    total = float(np.sum(v))
    norm = (total / n) ** (1.0 / p)
    loo = ((total - v) / (n - 1)) ** (1.0 / p)
    center = float(np.mean(loo))
    return norm, math.sqrt((n - 1) / n * float(np.sum((loo - center) ** 2)))


def _cell_weights(n_fine_steps: int, r: int) -> tuple[Array, Array]:
    """(1 - w, w) of fine nodes 1 .. n_fine_steps in their coarse cell (t_c,
    t_{c+1}] of r fine steps; w = 1 at the cell's right end."""
    nodes = np.arange(1, n_fine_steps + 1)
    # k / r - c, not (k - c r) / r: the rounding every recorded product has
    w = nodes / r - (nodes - 1) // r
    return 1.0 - w, w


# Fine rows per piece of the error fold: a piece's temporaries stay in a
# core's cache.
_FOLD_ROWS = 32


def _fold_cell_errors(x_fine, x_coarse, one_minus_w, w, grid_max, uniform_max):
    """Fold the errors of one level over whole coarse cells into per-path maxima.

    ``x_coarse`` holds coarse nodes c .. c + m, shape (m + 1, paths), and
    ``x_fine`` the m r fine nodes of the cells (t_c, t_{c+m}], shape (m r,
    paths); ``w`` and ``one_minus_w`` are the fine nodes' weights in their
    cell, shape (m r,), with w = 1 at a cell's right end.  The grid error
    compares the coarse nodes c+1 .. c+m with the fine nodes on them, the
    uniform error every fine node with the coarse interpolant.  The errors
    are folded piece by piece, a piece being a run of whole cells or, for
    cells longer than ``_FOLD_ROWS``, part of one cell.

    A piece's terms left (1 - w) and right w are outer products of the
    weights with a cell's two end values, written by ``np.einsum`` into two
    buffers of ``_FOLD_ROWS`` rows allocated once per call; the add,
    subtract and abs then run in place, and each piece reduces into one
    reused row.  The values equal the broadcast products bit for bit:
    einsum adds each product to a zeroed output, and +0 + p = p for every
    p >= +0 (X = Y^2 and both weights lie in [0, 1]).  Maxima do not depend
    on the order they are taken in.
    """
    cells = x_coarse.shape[0] - 1
    r = x_fine.shape[0] // cells
    paths = x_coarse.shape[1]
    per_piece = max(1, _FOLD_ROWS // r)
    part = min(r, _FOLD_ROWS)
    on_left = np.empty(per_piece * part * paths)
    on_right = np.empty_like(on_left)
    row = np.empty(paths)
    for c0 in range(0, cells, per_piece):
        c1 = min(c0 + per_piece, cells)
        span = slice(c0 * r, c1 * r)
        left, right = x_coarse[c0:c1], x_coarse[c0 + 1 : c1 + 1]
        fine_cells = x_fine[span].reshape(c1 - c0, r, paths)
        left_w = one_minus_w[span].reshape(c1 - c0, r)
        right_w = w[span].reshape(c1 - c0, r)
        for i0 in range(0, r, part):
            rows = slice(i0, min(i0 + part, r))
            fine = fine_cells[:, rows]
            if rows.stop == r:
                node_error = on_left[: right.size].reshape(right.shape)
                np.subtract(fine[:, -1], right, out=node_error)
                np.abs(node_error, out=node_error)
                np.maximum.reduce(node_error, axis=0, out=row)
                np.maximum(grid_max, row, out=grid_max)
            on_fine = on_left[: fine.size].reshape(fine.shape)
            on_end = on_right[: fine.size].reshape(fine.shape)
            np.einsum("cj,cp->cjp", left_w[:, rows], left, out=on_fine)
            np.einsum("cj,cp->cjp", right_w[:, rows], right, out=on_end)
            on_fine += on_end
            np.subtract(fine, on_fine, out=on_fine)
            np.abs(on_fine, out=on_fine)
            np.maximum.reduce(on_fine.reshape(-1, paths), axis=0, out=row)
            np.maximum(uniform_max, row, out=uniform_max)


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


def check_levels(n_list, n_ref, p_list, p_max=math.inf) -> None:
    """Raise unless :func:`strong_error_study` accepts these levels and orders.

    ``n_list`` must hold positive integers that increase, each dividing the
    next, ``n_ref`` must be a proper multiple of its largest entry, and every
    p must lie in (0, p_max).  The error (:class:`~delay_cir.noise.NotNested` or
    :class:`PRequestedTooLarge`) names the rejected argument in its
    ``argument`` attribute: ``"n_list"``, ``"n_ref"`` or ``"p_list"``.
    """

    def rejected(kind, argument, reason):
        exc = kind(reason)
        exc.argument = argument
        return exc

    if any(n < 1 for n in n_list):
        raise rejected(noise_mod.NotNested, "n_list", "entries must be positive integers")
    for small, big in zip(n_list, n_list[1:]):
        if big <= small or big % small:
            raise rejected(
                noise_mod.NotNested, "n_list", "must increase, each entry dividing the next"
            )
    if n_ref <= n_list[-1] or n_ref % n_list[-1]:
        raise rejected(
            noise_mod.NotNested, "n_ref", "must be a proper multiple of max(N_list)"
        )
    if any(p <= 0.0 for p in p_list):
        raise rejected(PRequestedTooLarge, "p_list", "entries must be positive")
    for p in p_list:
        if p >= p_max:
            raise rejected(
                PRequestedTooLarge, "p_list", f"{p:.17g} is not below p_max = {p_max:.17g}"
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
    whose blocks are ``_BLOCK_STEPS`` rounded up to a multiple of every ratio.

    ``n_list`` and ``n_ref`` must pass :func:`check_levels`, every p must lie
    below the ``p_max`` of the model's condition report, and the strict
    Feller condition must hold.
    """
    report = validate(model)
    if not report.strong_feller_ok:
        raise StrongFellerViolated(
            "strong error study requires sigma^2 < 2 a inf(gamma)"
        )
    n_list = [int(n) for n in n_list]
    p_list = [float(p) for p in p_list]
    check_levels(n_list, n_ref, p_list, report.p_max)

    fine_grid = build_grid(model, n_ref)
    coarse_grids = [build_grid(model, n) for n in n_list]
    ratios = [n_ref // n for n in n_list]
    # the coarsest ratio is a multiple of every other, so a block holds whole
    # cells of every level
    block = -(-_BLOCK_STEPS // ratios[0]) * ratios[0]
    weights = [_cell_weights(fine_grid.n_steps, r) for r in ratios]
    lanes = [(model, fine_grid, 1), *((model, g, r) for g, r in zip(coarse_grids, ratios))]

    def errors(draw, seg: Array) -> Array:
        """Rows 2i, 2i+1: grid and uniform errors of level n_list[i].

        Node 0 is left out: every level starts from the same value there.
        """
        out = np.zeros((2 * len(n_list), seg.shape[1]))
        x_coarse = np.empty((block // ratios[-1] + 1, seg.shape[1]))

        def fold(k0, inc, windows):
            # the increments are spent: their rows take the block's fine X
            x_fine = scheme_mod.square_rows(windows[0], n_ref + k0 + 1, inc.shape[0], out=inc)
            rows = slice(k0, k0 + x_fine.shape[0])
            for i, (grid_c, r) in enumerate(zip(coarse_grids, ratios)):
                x_c = scheme_mod.square_rows(
                    windows[1 + i], grid_c.n_per_delay + k0 // r,
                    x_fine.shape[0] // r + 1, out=x_coarse,
                )
                one_minus_w, w = weights[i]
                _fold_cell_errors(
                    x_fine, x_c, one_minus_w[rows], w[rows], out[2 * i], out[2 * i + 1]
                )

        walk_blocks(fine_grid, draw, seg, fold, lanes, block=block)
        return out

    err = map_paths(model, fine_grid, seed, n_paths, errors, threads)
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
    interpolated paths; its slope is close to 1/2, the paper's order in the
    uniform norm up to a log factor.
    """
    rows = [r for r in table.rows if r.p == p]
    if len(rows) < 3:
        raise InsufficientRows(f"need >= 3 rows at p={p}, got {len(rows)}")
    if variant == "plain_delta":
        x = np.array([math.log(r.delta) for r in rows])
        y_vals = [r.grid_error for r in rows]
    elif variant == "delta_log_delta":
        x = np.array([math.log(r.delta * abs(math.log(r.delta))) for r in rows])
        y_vals = [r.uniform_error for r in rows]
    else:
        raise ValueError(f"unknown fit variant {variant!r}")
    if min(y_vals) <= 0.0:
        raise InsufficientRows(f"cannot fit a rate through zero errors at p={p}")
    y = np.log(y_vals)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(
        p=p, variant=variant, slope=float(slope), intercept=float(intercept),
        r_squared=r_squared,
    )


# ---------------------------------------------------------------------------
# mean consistency
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeanCheckRow:
    t: float
    mc_mean: float
    oracle_mean: float
    z: float


def checkpoint_indices(grid: TimeGrid, checkpoints) -> list[int]:
    """Grid indices of ``checkpoints``; raises :class:`GridMisaligned` unless
    every entry is a grid node in [t0, T]."""
    out = []
    for t in checkpoints:
        rel = (float(t) - grid.t0) / grid.delta
        k = round(rel)
        if abs(rel - k) > 1e-9 * max(1.0, abs(rel)) or not 0 <= k <= grid.n_steps:
            raise GridMisaligned(f"checkpoint {t} is not a grid node in [t0, T]")
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
    ks = checkpoint_indices(grid, checkpoints)

    def at_checkpoints(draw, seg: Array) -> Array:
        out = np.empty((len(ks), seg.shape[1]))

        def fold(k0, inc, windows):
            for j, k in enumerate(ks):
                if k0 <= k <= k0 + inc.shape[0]:
                    np.square(windows[0][(grid.n_per_delay + k) % len(windows[0])], out=out[j])

        walk_blocks(grid, draw, seg, fold, [(model, grid, 1)])
        return out

    samples = map_paths(model, grid, seed, n_paths, at_checkpoints, threads)

    if model.b == 0.0 and model.gamma.kind == "constant":
        params = CIRParams.from_model(model)
        oracle = [classical_mean(params, float(grid.time(k))) for k in ks]
    else:
        curve = mean_delay_curve(model, grid)
        oracle = [float(curve.means[k]) for k in ks]

    rows = []
    for j, k in enumerate(ks):
        mc = float(np.mean(samples[j]))
        se = float(np.std(samples[j], ddof=1) / math.sqrt(n_paths))
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
    every grid node; both must pass :func:`validate`.
    """
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
    validate(model_upper)
    validate(model_lower)


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
    Both models are lanes of :func:`walk_blocks`, and each block's
    violations are counted per path.
    """
    check_comparable(model_upper, model_lower, grid)
    lanes = [(model_upper, grid, 1), (model_lower, grid, 1)]

    def violations(draw, seg: Array) -> Array:
        count = np.zeros(seg.shape[1], dtype=np.intp)

        def fold(k0, inc, windows):
            y_up, y_lo = windows
            # both windows start from the same segment nodes -N .. 0, so only
            # the block's new nodes can differ
            for span in scheme_mod.ring_spans(len(y_up), grid.n_per_delay + k0 + 1, len(inc)):
                count[:] += np.count_nonzero(y_up[span] < y_lo[span], axis=0)

        walk_blocks(grid, draw, seg, fold, lanes)
        return count

    return int(np.sum(map_paths(model_upper, grid, seed, n_paths, violations, threads)))


def check_schemes(names, model: ModelSpec) -> None:
    """Raise unless ``names`` is a nonempty list of ``implicit`` and baselines
    that run on ``model`` (:func:`~delay_cir.scheme.check_baselines`)."""
    if not names:
        raise ValueError("empty list")
    scheme_mod.check_baselines([name for name in names if name != "implicit"], model)


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
    the same noise.  The implicit scheme is a lane of :func:`walk_blocks`,
    the baselines its explicit window, and each block's x <= 0 flags are
    folded into per-path booleans.
    """
    names = tuple(schemes)
    check_schemes(names, model)
    validate(model)
    n_delay = grid.n_per_delay
    baselines = tuple(dict.fromkeys(name for name in names if name != "implicit"))
    lanes = [(model, grid, 1)] if "implicit" in names else []

    def census(draw, seg: Array) -> Array:
        # row 0 flags the implicit scheme, row 1 + i baselines[i]
        flags = np.zeros((1 + len(baselines), seg.shape[1]), dtype=bool)

        # Node 0 is the segment's last node, positive in every scheme (the
        # implicit one holds sqrt(x)^2 >= 2^-1074 for x > 0), so only the
        # nodes 1 .. K that each block adds are flagged.
        def fold(k0, inc, windows):
            if baselines:
                x = windows[-1]
                for span in scheme_mod.ring_spans(len(x), n_delay + k0 + 1, len(inc)):
                    flags[1:] |= np.any(x[span] <= 0.0, axis=0)
            if lanes:
                # the increments are spent: their rows take the block's X
                x_implicit = scheme_mod.square_rows(windows[0], n_delay + k0 + 1, len(inc), inc)
                flags[0] |= np.any(x_implicit <= 0.0, axis=0)

        walk_blocks(grid, draw, seg, fold, lanes, (model, baselines) if baselines else None)
        row = {name: 1 + i for i, name in enumerate(baselines)} | {"implicit": 0}
        return flags[[row[name] for name in names]]

    flagged = np.count_nonzero(
        map_paths(model, grid, seed, n_paths, census, threads), axis=1
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
    every entry is a whole number of grid steps in (0, T - t0]."""
    lags = []
    for d in delta_list:
        rel = float(d) / grid.delta
        lag = round(rel)
        if lag < 1 or abs(rel - lag) > 1e-9 or lag > grid.n_steps:
            raise GridMisaligned(
                f"modulus delta {d} must be a whole number of grid steps in (0, T - t0]"
            )
        lags.append(lag)
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
    Each block of :func:`walk_blocks` adds the node pairs that end in it to
    per-lag maxima, its window keeping the largest lag's nodes before it.
    """
    validate(model)
    lags = modulus_lags(grid, delta_list)
    distinct = sorted(set(lags))
    n_delay, back = grid.n_per_delay, distinct[-1]

    def moduli(draw, seg: Array) -> Array:
        """Row j: the modulus at lag distinct[j], a running max over lags."""
        per_lag = np.zeros((back, seg.shape[1]))
        x = np.empty((back + min(_BLOCK_STEPS, grid.n_steps), seg.shape[1]))

        def fold(k0, inc, windows):
            # X of nodes lo .. k1: the block's and the largest lag's before it
            lo, k1 = max(0, k0 + 1 - back), k0 + len(inc)
            xs = scheme_mod.square_rows(windows[0], n_delay + lo, k1 + 1 - lo, out=x)
            for lag in range(1, min(back, k1) + 1):
                # pairs (t - lag, t), k0 < t <= k1, one per increment row at most
                first = max(k0 + 1, lag) - lo
                d = np.subtract(xs[first:], xs[first - lag : -lag], out=inc[: len(xs) - first])
                row = per_lag[lag - 1]
                np.maximum(row, np.max(np.abs(d, out=d), axis=0), out=row)

        walk_blocks(grid, draw, seg, fold, [(model, grid, 1)], back=back)
        return np.maximum.accumulate(per_lag)[[lag - 1 for lag in distinct]]

    w = map_paths(model, grid, seed, n_paths, moduli, threads)
    rows = []
    for lag in sorted(lags):
        norm, _ = _lp_norm_and_jackknife(w[distinct.index(lag)], p)
        rows.append(ModulusRow(delta=lag * grid.delta, modulus=norm))
    fit = [r for r in rows if r.delta * abs(math.log(r.delta)) > 0.0]
    xs = np.array([math.log(math.sqrt(r.delta * abs(math.log(r.delta)))) for r in fit])
    ys = np.array([math.log(r.modulus) for r in fit])
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(fit) >= 2 else math.nan
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
    Monte Carlo averaging.  Each block of :func:`walk_blocks` writes its X
    rows into a path-major buffer of K + 1 nodes per path, which is summed as
    one row per path in numpy's pairwise order.
    """
    validate(model)

    def discounted(draw, seg: Array) -> Array:
        x = np.empty((seg.shape[1], grid.n_steps + 1))

        def fold(k0, inc, windows):
            # nodes k0 .. k0 + n, node k0 again after the first block
            nodes = x[:, k0 : k0 + len(inc) + 1].T
            scheme_mod.square_rows(windows[0], grid.n_per_delay + k0, len(nodes), out=nodes)

        walk_blocks(grid, draw, seg, fold, [(model, grid, 1)])
        return np.exp(-(grid.delta * (x.sum(axis=1) - 0.5 * (x[:, 0] + x[:, -1]))))

    vals = map_paths(model, grid, seed, n_paths, discounted, threads)
    return SurvivalEstimate(
        value=float(np.mean(vals)),
        std_err=float(np.std(vals, ddof=1) / math.sqrt(n_paths)),
        n_paths=n_paths,
    )


def classical_variant(model: ModelSpec, gamma_level: float | None = None) -> ModelSpec:
    """The b = 0 comparison model: same parameters, optionally flat gamma."""
    gamma = model.gamma if gamma_level is None else GammaSpec.constant(gamma_level)
    return replace(model, b=0.0, gamma=gamma)
