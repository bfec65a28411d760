"""Monte Carlo experiments: strong-convergence rates, consistency checks, censuses.

The central experiment couples every coarse resolution to one fine reference
path through shared Brownian increments (exact block sums, see
``delay_cir.noise``) and reports L^p norms of the pathwise sup errors:

* grid error      max over coarse nodes of |x_ref(t_k) - x_k|,
* uniform error   max over *fine* nodes of |Xhat_ref(t) - Xhat(t)|; both
                  interpolants are affine between fine nodes, so the fine-node
                  maximum is the exact sup over [t0, T].

Every experiment runs its paths through one chunk loop, :func:`map_paths`:
chunks of at most ``_CHUNK`` paths are simulated time-major (increments as
(steps, paths), paths as (nodes, paths)) and reduced to per-path results,
which are assembled in path order.  With ``threads > 1`` the chunks run in
that many worker processes forked from the caller, balanced so that each
worker gets the same number of chunks.  Monte Carlo aggregation then uses
numpy pairwise summation over the per-path arrays, so results do not depend
on chunking or on the worker count; ``threads`` only changes wall time.
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
from .model import GammaSpec, GridMisaligned, ModelSpec, TimeGrid, build_grid, validate

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
    "SCHEMES",
    "map_paths",
    "strong_error_study",
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

# Scheme names of the positivity census.
SCHEMES = ("implicit", "truncated", "symmetrized")


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

    ``reduce(inc, seg)`` gets a chunk's Brownian increments on ``grid``, shape
    (steps, paths), and its initial-segment X values, shape (N+1, paths), and
    returns an array whose last axis runs over the chunk's paths.

    With ``threads == 1`` the chunks, of ``_CHUNK`` paths, run in this process.
    Otherwise ``threads`` is a count of worker processes forked from this one
    (the ``fork`` start method, so Linux or another POSIX system): the paths
    are split into ``threads * ceil(n_paths / (threads * _CHUNK))`` chunks
    whose sizes differ by at most one path, so every worker gets the same
    number of chunks and none holds more than ``_CHUNK`` paths.  Workers
    inherit ``reduce`` instead of receiving it pickled, and send back only
    each chunk's result.  An exception raised by a chunk reaches the caller
    with its type and message; when several chunks fail, the first in path
    order is raised, as in this process.  Noise is keyed by path, so the
    result does not depend on the chunking or the worker count.
    """

    def run(lo: int, hi: int) -> Array:
        paths = range(lo, hi)
        inc = noise_mod.generate(grid, seed, paths)
        seg = noise_mod.sample_segment(model.initial, grid, seed, paths).values
        return reduce(inc, seg)

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


def _lp_norm_and_jackknife(err: Array, p: float) -> tuple[float, float]:
    """(E[err^p])^{1/p} with its leave-one-out jackknife standard error."""
    n = err.size
    v = err**p
    total = float(np.sum(v))
    norm = (total / n) ** (1.0 / p)
    loo = ((total - v) / (n - 1)) ** (1.0 / p)
    center = float(np.mean(loo))
    return norm, math.sqrt((n - 1) / n * float(np.sum((loo - center) ** 2)))


def _coarse_on_fine_weights(n_fine_steps: int, r: int) -> tuple[Array, Array]:
    idx = np.arange(n_fine_steps + 1)
    base = np.minimum(idx // r, n_fine_steps // r - 1)
    frac = idx / r - base
    return base, frac


# Fine nodes per block of the uniform-error reduction.
_UNIFORM_ROWS = 64


def _uniform_error(x_fine, x_coarse, base, frac, out):
    """Per-path max over fine nodes of |x_fine - coarse interpolant|, into ``out``."""
    out[...] = 0.0
    for lo in range(0, base.size, _UNIFORM_ROWS):
        rows = slice(lo, lo + _UNIFORM_ROWS)
        b, w = base[rows], frac[rows, None]
        on_fine = x_coarse[b] * (1.0 - w) + x_coarse[b + 1] * w
        np.maximum(out, np.abs(x_fine[rows] - on_fine).max(axis=0), out=out)


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

    ``n_list`` must be increasing with each entry dividing the next and the
    largest dividing ``n_ref``; every p must lie below the ``p_max`` of the
    model's condition report, and the strict Feller condition must hold.
    """
    report = validate(model)
    if not report.strong_feller_ok:
        raise StrongFellerViolated(
            "strong error study requires sigma^2 < 2 a inf(gamma)"
        )
    n_list = [int(n) for n in n_list]
    p_list = [float(p) for p in p_list]
    for small, big in zip(n_list, n_list[1:]):
        if big <= small or big % small:
            raise noise_mod.NotNested(
                f"n_list must increase, each entry dividing the next: {n_list}"
            )
    if n_ref <= n_list[-1] or n_ref % n_list[-1]:
        raise noise_mod.NotNested(
            f"n_ref={n_ref} must be a proper multiple of max(n_list)={n_list[-1]}"
        )
    for p in p_list:
        if p >= report.p_max:
            raise PRequestedTooLarge(f"p={p} is not below p_max={report.p_max}")
        if p <= 0.0:
            raise PRequestedTooLarge(f"p must be positive, got {p}")

    fine_grid = build_grid(model, n_ref)
    coarse_grids = {n: build_grid(model, n) for n in n_list}
    offset_fine = fine_grid.n_per_delay
    weights = {n: _coarse_on_fine_weights(fine_grid.n_steps, n_ref // n) for n in n_list}

    def errors(inc_fine: Array, seg: Array) -> Array:
        """Rows 2i, 2i+1: grid and uniform errors of level n_list[i]."""
        y_ref = scheme_mod.simulate_y_paths(model, fine_grid, inc_fine, seg)
        x_ref = np.square(y_ref[offset_fine:], out=y_ref[offset_fine:])
        out = np.empty((2 * len(n_list), inc_fine.shape[1]))
        for i, n in enumerate(n_list):
            r = n_ref // n
            grid_c = coarse_grids[n]
            inc_c = noise_mod.block_sum(inc_fine, r)
            # segment nodes at the coarse level are every r-th fine node
            y_c = scheme_mod.simulate_y_paths(model, grid_c, inc_c, seg[::r])
            x_c = np.square(y_c[grid_c.n_per_delay :])
            np.max(np.abs(x_ref[::r] - x_c), axis=0, out=out[2 * i])
            _uniform_error(x_ref, x_c, *weights[n], out=out[2 * i + 1])
        return out

    err = map_paths(model, fine_grid, seed, n_paths, errors, threads)
    rows = []
    for p in p_list:
        for i, n in enumerate(n_list):
            g_norm, g_se = _lp_norm_and_jackknife(err[2 * i], p)
            u_norm, u_se = _lp_norm_and_jackknife(err[2 * i + 1], p)
            rows.append(
                ErrorRow(
                    delta=coarse_grids[n].delta,
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
    initial level is E[X0].  z = (MC mean - oracle) / (sample sd / sqrt(n)).
    """
    validate(model)
    ks = checkpoint_indices(grid, checkpoints)
    rows_k = [grid.n_per_delay + k for k in ks]

    def at_checkpoints(inc: Array, seg: Array) -> Array:
        y = scheme_mod.simulate_y_paths(model, grid, inc, seg)
        return np.square(y[rows_k])

    # (paths, checkpoints), the layout the column statistics below reduce over
    samples = np.ascontiguousarray(
        map_paths(model, grid, seed, n_paths, at_checkpoints, threads).T
    )

    if model.b == 0.0 and model.gamma.kind == "constant":
        params = CIRParams.from_model(model)
        oracle = [classical_mean(params, float(grid.time(k))) for k in ks]
    else:
        curve = mean_delay_curve(model, grid)
        oracle = [float(curve.means[k]) for k in ks]

    rows = []
    for j, k in enumerate(ks):
        mc = float(np.mean(samples[:, j]))
        se = float(np.std(samples[:, j], ddof=1) / math.sqrt(n_paths))
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
    """
    check_comparable(model_upper, model_lower, grid)

    def violations(inc: Array, seg: Array) -> Array:
        y_up = scheme_mod.simulate_y_paths(model_upper, grid, inc, seg)
        y_lo = scheme_mod.simulate_y_paths(model_lower, grid, inc, seg)
        return np.count_nonzero(y_up < y_lo, axis=0)

    return int(np.sum(map_paths(model_upper, grid, seed, n_paths, violations, threads)))


def check_schemes(names, model: ModelSpec) -> None:
    """Raise unless every name is in :data:`SCHEMES` and runs on ``model``
    (the symmetrized scheme exists for b = 0 only)."""
    for name in names:
        if name not in SCHEMES:
            raise ValueError(f"unknown scheme {name!r}")
    if "symmetrized" in names and model.b != 0.0:
        raise scheme_mod.DelayNotSupported(
            "the symmetrized scheme is defined for b = 0 only"
        )


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
    the same noise, drawn once per chunk.
    """
    names = tuple(schemes)
    check_schemes(names, model)
    validate(model)
    offset = grid.n_per_delay

    def nonpositive(name: str, inc: Array, seg: Array) -> Array:
        if name == "implicit":
            y = scheme_mod.simulate_y_paths(model, grid, inc, seg)
            x = np.square(y[offset:], out=y[offset:])
        else:
            x = getattr(scheme_mod, f"{name}_euler_paths")(model, grid, inc, seg)[0]
            x = x[offset:]
        return np.any(x <= 0.0, axis=0)

    def census(inc: Array, seg: Array) -> Array:
        # one scheme's paths at a time: each is reduced before the next marches
        return np.array([nonpositive(name, inc, seg) for name in names])

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

    @property
    def deltas(self) -> Array:
        return np.array([r.delta for r in self.rows])


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
    which the modulus of a square-root diffusion grows linearly.
    """
    validate(model)
    lags = modulus_lags(grid, delta_list)
    order = np.argsort(lags)
    distinct = sorted(set(lags))
    offset = grid.n_per_delay

    def moduli(inc: Array, seg: Array) -> Array:
        """Row j: the modulus at lag distinct[j], a running max over lags."""
        y = scheme_mod.simulate_y_paths(model, grid, inc, seg)
        x = np.square(y[offset:])
        out = np.empty((len(distinct), inc.shape[1]))
        running = np.zeros(inc.shape[1])
        for lag in range(1, distinct[-1] + 1):
            diffs = np.max(np.abs(x[lag:] - x[:-lag]), axis=0)
            np.maximum(running, diffs, out=running)
            if lag in distinct:
                out[distinct.index(lag)] = running
        return out

    w = map_paths(model, grid, seed, n_paths, moduli, threads)
    rows = []
    for i in order:
        lag = lags[i]
        norm, _ = _lp_norm_and_jackknife(w[distinct.index(lag)], p)
        rows.append(ModulusRow(delta=lag * grid.delta, modulus=norm))
    xs = np.array([math.log(math.sqrt(r.delta * abs(math.log(r.delta)))) for r in rows])
    ys = np.array([math.log(r.modulus) for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(rows) >= 2 else math.nan
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
    Monte Carlo averaging.
    """
    validate(model)
    offset = grid.n_per_delay

    def discounted(inc: Array, seg: Array) -> Array:
        y = scheme_mod.simulate_y_paths(model, grid, inc, seg)
        x = np.square(y[offset:])
        # sum each path's nodes as one contiguous row: numpy's pairwise order
        total = np.ascontiguousarray(x.T).sum(axis=1)
        return np.exp(-(grid.delta * (total - 0.5 * (x[0] + x[-1]))))

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
