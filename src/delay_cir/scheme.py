"""Positivity-preserving drift-implicit scheme and the baseline schemes.

The square-root transform Y = sqrt(X) solves

    dY(t) = [a_under(t) / Y(t) - a_bar Y(t) + b_bar Y(t - tau)^2 / Y(t)] dt
            + sigma_bar dW(t).

On the delay-aligned grid (step delta = tau / N) the drift-implicit Euler
update treats every drift term implicitly except the delayed one, whose value
y_{k+1-N} is already known:

    y_{k+1} = y_k + [a_under(t_{k+1}) / y_{k+1} - a_bar y_{k+1}
              + b_bar y_{k+1-N}^2 / y_{k+1}] delta + sigma_bar dW_k.

Multiplying by y_{k+1} gives a quadratic whose unique positive root is

    y_{k+1} = [s + sqrt(s^2 + 4 (1 + a_bar delta) c delta)] / (2 (1 + a_bar delta)),

with s = y_k + sigma_bar dW_k and c = a_under(t_{k+1}) + b_bar y_{k+1-N}^2.
For s < 0 the numerator cancels catastrophically, so the conjugate form

    y_{k+1} = 2 c delta / (sqrt(s^2 + 4 (1 + a_bar delta) c delta) - s)

is used instead; both branches are exact rearrangements of the same root.
The root is strictly positive whenever c > 0, which is what keeps every
simulated path positive without truncation or reflection.

Baselines for comparison experiments: a truncated explicit Euler scheme in X
(which can and does go negative), a symmetrized (absolute-value) Euler scheme
for b = 0, and a no-delay proxy that folds the delayed drift into the mean
reversion speed, valid for b < a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, OutOfDomain, TimeGrid
from .noise import NonPositiveSample, SegmentDraw

Array = np.ndarray

__all__ = [
    "PathY",
    "PathX",
    "BaselinePathX",
    "implicit_step",
    "implicit_residual",
    "simulate_y",
    "simulate_y_paths",
    "diffusive_value",
    "square_and_interpolate",
    "simulate_truncated_euler",
    "truncated_euler_paths",
    "simulate_symmetrized_euler",
    "symmetrized_euler_paths",
    "simulate_small_tau_proxy",
    "small_tau_proxy_paths",
    "NonPositiveForcing",
    "DelayNotSupported",
    "ProxyRequiresBLessThanA",
    "UnresolvableTime",
]


class NonPositiveForcing(ValueError):
    """a_under + b_bar z^2 <= 0: the implicit update has no positive root."""


class DelayNotSupported(ValueError):
    """The requested scheme only exists for b = 0."""


class ProxyRequiresBLessThanA(ValueError):
    """The no-delay proxy needs b < a for a positive effective reversion speed."""


class UnresolvableTime(ValueError):
    """Requested time is not resolvable between the grid nodes."""


# ---------------------------------------------------------------------------
# core update
# ---------------------------------------------------------------------------


def implicit_step(y_prev, z_delay, noise, a_under_next, a_bar, b_bar, delta):
    """One drift-implicit update in Y; accepts scalars or broadcasting arrays.

    Parameters
    ----------
    y_prev : current value y_k (> 0).
    z_delay : delayed value y_{k+1-N} entering through b_bar * z_delay**2.
    noise : the already-scaled Gaussian term sigma_bar * dW_k.
    a_under_next : a_under evaluated at the *target* time t_{k+1}.
    a_bar, b_bar, delta : scheme coefficients and step.

    Returns the unique positive root of the implicit equation; raises
    :class:`NonPositiveForcing` when a_under_next + b_bar z^2 <= 0 (no
    positive root exists there, e.g. at Feller equality with b = 0, z = 0).
    """
    c = a_under_next + b_bar * np.square(z_delay)
    if np.any(np.asarray(c) <= 0.0):
        raise NonPositiveForcing(
            "a_under + b_bar * z^2 must be positive for the implicit update"
        )
    s, c = np.broadcast_arrays(y_prev + noise, c)
    out = _positive_root(np.atleast_1d(s), np.atleast_1d(c), a_bar, delta)
    return float(out[0]) if s.ndim == 0 else out


def _positive_root(s, c, a_bar, delta):
    """Positive root y of (1 + a_bar delta) y^2 - s y - c delta = 0 for 1-D ``s``.

    ``c`` is shaped like ``s`` or a scalar.  Where not s >= 0 (s < 0 or NaN)
    the conjugate form 2 c delta / (disc - s) replaces (s + disc) / (2 (1 +
    a_bar delta)), whose numerator cancels catastrophically there.
    """
    one_plus = 1.0 + a_bar * delta
    disc = np.sqrt(s * s + (4.0 * delta) * one_plus * c)
    out = (s + disc) / (2.0 * one_plus)
    neg = ~(s >= 0.0)
    if neg.any():
        c_neg = c[neg] if np.ndim(c) else c
        out[neg] = (2.0 * delta) * c_neg / (disc[neg] - s[neg])
    return out


def implicit_residual(y_next, y_prev, z_delay, noise, a_under_next, a_bar, b_bar, delta):
    """Defect of the implicit equation at ``y_next`` (zero for the exact root)."""
    drift = (
        a_under_next / y_next
        - a_bar * y_next
        + b_bar * np.square(z_delay) / y_next
    )
    return y_next - y_prev - drift * delta - noise


# ---------------------------------------------------------------------------
# path containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathY:
    """One path of the transformed process on grid nodes k = -N .. K."""

    model: ModelSpec
    grid: TimeGrid
    values: Array

    def value(self, k: int) -> float:
        return float(self.values[self.grid.node_index(k)])


@dataclass(frozen=True)
class PathX:
    """One path of X on grid nodes k = -N .. K with its linear interpolant."""

    model: ModelSpec
    grid: TimeGrid
    values: Array

    def value(self, k: int) -> float:
        return float(self.values[self.grid.node_index(k)])

    def interpolate(self, t: float | Array):
        """Piecewise-linear interpolant through the grid nodes."""
        times = self.grid.times()
        t_arr = np.asarray(t, dtype=float)
        tol = 1e-9 * max(1.0, self.grid.tau)
        if np.any(t_arr < times[0] - tol) or np.any(t_arr > times[-1] + tol):
            raise OutOfDomain(f"t={t!r} outside [{times[0]}, {times[-1]}]")
        out = np.interp(t_arr, times, self.values)
        return out if np.ndim(t) else float(out)


@dataclass(frozen=True)
class BaselinePathX:
    """Baseline-scheme path on nodes k = 0 .. K plus its negativity census."""

    model: ModelSpec
    grid: TimeGrid
    scheme: str
    values: Array
    nonpositive_count: int

    def value(self, k: int) -> float:
        if k < 0 or k > self.grid.n_steps:
            raise OutOfDomain(f"baseline paths cover k = 0 .. {self.grid.n_steps}")
        return float(self.values[k])


# ---------------------------------------------------------------------------
# main scheme
# ---------------------------------------------------------------------------


def _batch_inputs(n_steps: int, n_nodes: int, increments, segment, perturbation=None):
    """Validated time-major inputs: increments (K, paths), start X (nodes, paths).

    One-dimensional increments are one path; a one-dimensional segment is
    shared by every path, and ``perturbation`` broadcasts against the
    (nodes, paths) segment.
    """
    inc = np.asarray(increments, dtype=float)
    inc = inc[:, None] if inc.ndim == 1 else inc
    if inc.shape[0] != n_steps:
        raise ValueError(f"expected {n_steps} increments, got {inc.shape[0]}")
    if isinstance(segment, SegmentDraw):
        segment = segment.values
    seg = np.asarray(segment, dtype=float)
    if seg.shape[0] != n_nodes:
        raise ValueError(f"segment needs {n_nodes} node values, got {seg.shape[0]}")
    seg = seg[:, None] if seg.ndim == 1 else seg
    if perturbation is not None:
        seg = seg + np.asarray(perturbation, dtype=float)
    if not np.all(np.isfinite(inc)):
        raise ValueError("increments must be finite")
    if not np.all(np.isfinite(seg)):
        raise ValueError("segment values must be finite")
    if np.any(seg <= 0.0):
        raise NonPositiveSample("segment values (after perturbation) must be positive")
    return inc, np.broadcast_to(seg, (n_nodes, inc.shape[1]))


def _implicit_march(y, inc, au, a_bar, b_bar, sigma_bar, delta, n_delay):
    """Fill rows n_delay+1 .. of the time-major ``y`` with implicit updates.

    Row n_delay + k + 1 solves the implicit equation from row n_delay + k with
    increment row k and the delayed row k + 1, by the root of
    :func:`implicit_step`.  The forcing is checked once when a_under > 0 and
    b_bar >= 0 (then c >= a_under > 0), otherwise on every step.
    """
    forcing_ok = bool(np.min(au) > 0.0) and b_bar >= 0.0
    for k in range(inc.shape[0]):
        s = y[n_delay + k] + sigma_bar * inc[k]
        # delayed node k+1-N sits at row (k+1-N) + N = k+1
        c = au[k] + b_bar * np.square(y[k + 1]) if b_bar != 0.0 else au[k]
        if not forcing_ok and np.any(c <= 0.0):
            raise NonPositiveForcing(
                f"step to node {k + 1}: a_under + b_bar * z^2 must be positive "
                "for the implicit update"
            )
        y[n_delay + k + 1] = _positive_root(s, c, a_bar, delta)


def simulate_y_paths(
    model: ModelSpec,
    grid: TimeGrid,
    increments: Array,
    segment,
    segment_perturbation: Array | None = None,
) -> Array:
    """Vectorised drift-implicit simulation of Y over many paths, time-major.

    Parameters
    ----------
    increments : array (K, n_paths) or (K,) of Brownian increments at the
        grid resolution.
    segment : :class:`SegmentDraw` or array of X0 node values, shape (N+1,)
        or (N+1, n_paths).
    segment_perturbation : optional array added to the segment X values
        before the square root (error-budget injection hook); the perturbed
        segment must stay strictly positive.

    Returns
    -------
    Array of shape (N + K + 1, n_paths) with the Y values on nodes -N .. K.
    Non-finite increments or segment values raise ``ValueError``.
    """
    inc, seg_x = _batch_inputs(
        grid.n_steps, grid.n_per_delay + 1, increments, segment, segment_perturbation
    )
    n_delay, n_steps = grid.n_per_delay, grid.n_steps
    # a_under at the target times t_1 .. t_K (implicit terms live at t_{k+1})
    au = np.asarray(model.a_under(grid.time(np.arange(1, n_steps + 1))), dtype=float)
    y = np.empty((n_delay + n_steps + 1, inc.shape[1]))
    np.sqrt(seg_x, out=y[: n_delay + 1])
    _implicit_march(
        y, inc, au, model.a_bar, model.b_bar, model.sigma_bar, grid.delta, n_delay
    )
    return y


def simulate_y(
    model: ModelSpec,
    grid: TimeGrid,
    increments: Array,
    segment: SegmentDraw,
    segment_perturbation: Array | None = None,
) -> PathY:
    """Drift-implicit path of Y for a single path's increments and segment."""
    inc = np.asarray(increments, dtype=float)
    if inc.ndim != 1:
        raise ValueError("simulate_y is single-path; use simulate_y_paths for batches")
    values = simulate_y_paths(model, grid, inc, segment, segment_perturbation)[:, 0]
    return PathY(model=model, grid=grid, values=values)


def square_and_interpolate(path: PathY) -> PathX:
    """X path x_k = y_k^2 with its piecewise-linear interpolant."""
    return PathX(model=path.model, grid=path.grid, values=np.square(path.values))


def diffusive_value(
    path: PathY,
    t: float,
    w_in_cell: float,
    z_delay: float | None = None,
    segment: SegmentDraw | None = None,
    fine_per_delay: int | None = None,
) -> float:
    """Value of the in-cell (diffusive) extension of the scheme at time t.

    Inside the cell (t_k, t_{k+1}] the extension solves the same implicit
    equation with step t - t_k and the aggregated Brownian value
    ``w_in_cell`` = W(t) - W(t_k).  At t = t_{k+1} with the full increment it
    reproduces y_{k+1} exactly; as t -> t_k (and w -> 0) it approaches y_k.

    ``z_delay`` is the delayed value Y(t - tau).  It may be omitted when
    b = 0 (unused) or when t - tau <= t0 with a ``segment`` that resolves the
    continuous-time initial values.  ``fine_per_delay`` optionally declares
    the fine resolution on which the Brownian value is known; times off that
    fine grid then raise :class:`UnresolvableTime`.
    """
    grid = path.grid
    rel = (t - grid.t0) / grid.delta
    if rel <= 1e-12 or rel > grid.n_steps + 1e-9:
        raise UnresolvableTime(f"t={t} outside ({grid.t0}, {grid.t_end}]")
    if fine_per_delay is not None:
        if fine_per_delay % grid.n_per_delay:
            raise UnresolvableTime(
                f"fine resolution {fine_per_delay} does not refine N={grid.n_per_delay}"
            )
        pos = (t - grid.t0) * fine_per_delay / grid.tau
        if abs(pos - round(pos)) > 1e-9:
            raise UnresolvableTime(
                f"t={t} is not a node of the fine grid with {fine_per_delay} steps per delay"
            )
    k_next = math.ceil(rel - 1e-12)
    k_prev = k_next - 1
    dt = t - float(grid.time(k_prev))
    if z_delay is None:
        if path.model.b_bar != 0.0:
            t_delayed = t - grid.tau
            if segment is not None and t_delayed <= grid.t0 + 1e-12:
                z_delay = math.sqrt(float(segment.value_at(t_delayed)))
            else:
                raise UnresolvableTime(
                    "b > 0 needs the delayed value Y(t - tau): pass z_delay "
                    "(or a segment when t - tau <= t0)"
                )
        else:
            z_delay = 0.0
    return float(
        implicit_step(
            path.value(k_prev),
            z_delay,
            path.model.sigma_bar * w_in_cell,
            float(path.model.a_under(t)),
            path.model.a_bar,
            path.model.b_bar,
            dt,
        )
    )


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def _explicit_paths(model, grid, increments, segment, update):
    """Time-major explicit march: x_{k+1} = update(x_k, x_{k-N}, gamma(t_k), dW_k).

    Returns (paths on nodes -N .. K, shape (N + K + 1, n_paths), and the
    per-path count of nodes k >= 0 with x_k <= 0).
    """
    inc, seg_x = _batch_inputs(grid.n_steps, grid.n_per_delay + 1, increments, segment)
    n_delay = grid.n_per_delay
    times = grid.time(np.arange(0, grid.n_steps))
    gamma_left = np.asarray(model.gamma_at(times), dtype=float)
    x = np.empty((n_delay + grid.n_steps + 1, inc.shape[1]))
    x[: n_delay + 1] = seg_x
    for k in range(grid.n_steps):
        x[n_delay + k + 1] = update(x[n_delay + k], x[k], gamma_left[k], inc[k])
    return x, np.count_nonzero(x[n_delay:] <= 0.0, axis=0)


def _baseline_path(scheme, paths, model, grid, increments, segment) -> BaselinePathX:
    x, counts = paths(model, grid, np.asarray(increments), segment)
    return BaselinePathX(
        model=model,
        grid=grid,
        scheme=scheme,
        values=x[grid.n_per_delay :, 0],
        nonpositive_count=int(counts[0]),
    )


def truncated_euler_paths(
    model: ModelSpec, grid: TimeGrid, increments: Array, segment
) -> tuple[Array, Array]:
    """Explicit Euler in X with the diffusion truncated at zero.

        x_{k+1} = x_k + [a (gamma(t_k) - x_k) + b x_{k-N}] delta
                  + sigma sqrt(max(x_k, 0)) dW_k

    Inputs are time-major as in :func:`simulate_y_paths`.  Returns (paths on
    nodes -N .. K, shape (N + K + 1, n_paths), and the per-path count of
    nodes k >= 0 with x_k <= 0).  Negative excursions are left in place --
    counting them is the point of this baseline.
    """
    a, b, sigma, delta = model.a, model.b, model.sigma, grid.delta

    def update(cur, delayed, gamma, dw):
        drift = a * (gamma - cur) + b * delayed
        return cur + drift * delta + sigma * np.sqrt(np.maximum(cur, 0.0)) * dw

    return _explicit_paths(model, grid, increments, segment, update)


def simulate_truncated_euler(
    model: ModelSpec, grid: TimeGrid, increments: Array, segment: SegmentDraw
) -> BaselinePathX:
    return _baseline_path(
        "truncated", truncated_euler_paths, model, grid, increments, segment
    )


def symmetrized_euler_paths(
    model: ModelSpec, grid: TimeGrid, increments: Array, segment
) -> tuple[Array, Array]:
    """Symmetrized Euler in X (b = 0 only): reflect instead of truncate.

        x_{k+1} = | x_k + a (gamma(t_k) - x_k) delta + sigma sqrt(x_k) dW_k |

    Time-major inputs and outputs as in :func:`truncated_euler_paths`.
    """
    if model.b != 0.0:
        raise DelayNotSupported("the symmetrized scheme is defined for b = 0 only")
    a, sigma, delta = model.a, model.sigma, grid.delta

    def update(cur, delayed, gamma, dw):
        return np.abs(cur + a * (gamma - cur) * delta + sigma * np.sqrt(cur) * dw)

    return _explicit_paths(model, grid, increments, segment, update)


def simulate_symmetrized_euler(
    model: ModelSpec, grid: TimeGrid, increments: Array, segment: SegmentDraw
) -> BaselinePathX:
    return _baseline_path(
        "symmetrized", symmetrized_euler_paths, model, grid, increments, segment
    )


def small_tau_proxy_paths(
    model: ModelSpec, grid: TimeGrid, increments: Array, x0
) -> Array:
    """No-delay proxy run by the same drift-implicit machinery.

    For small tau the delayed equation is close to the classical process

        dV(t) = (a - b) [ (a / (a - b)) gamma(t) - V(t) ] dt + sigma sqrt(V(t)) dW(t),

    i.e. the same equation with reversion speed a - b and the delay term
    folded into the mean level.  In Y coordinates the transform leaves
    a_under unchanged and replaces a_bar by (a - b) / 2, so the proxy reuses
    the implicit update with b_bar = 0.  Requires b < a; for b = 0 it is the
    main scheme itself.  Starts from the single value V(t0) = ``x0``.

    Increments are time-major as in :func:`simulate_y_paths`.  Returns V on
    nodes 0 .. K, shape (K + 1, n_paths).
    """
    if model.b >= model.a:
        raise ProxyRequiresBLessThanA(f"need b < a, got b={model.b}, a={model.a}")
    start = np.ravel(np.asarray(x0, dtype=float))[None, :]
    inc, v0 = _batch_inputs(grid.n_steps, 1, increments, start)
    n_steps = grid.n_steps
    au = np.asarray(model.a_under(grid.time(np.arange(1, n_steps + 1))), dtype=float)
    y = np.empty((n_steps + 1, inc.shape[1]))
    np.sqrt(v0, out=y[:1])
    _implicit_march(
        y, inc, au, 0.5 * (model.a - model.b), 0.0, model.sigma_bar, grid.delta, 0
    )
    return np.square(y)


def simulate_small_tau_proxy(
    model: ModelSpec, grid: TimeGrid, increments: Array, segment: SegmentDraw
) -> BaselinePathX:
    """Proxy path started from the segment's value at t0."""
    x = small_tau_proxy_paths(
        model, grid, np.asarray(increments), float(segment.values[-1])
    )
    return BaselinePathX(
        model=model,
        grid=grid,
        scheme="small_tau_proxy",
        values=x[:, 0],
        nonpositive_count=int(np.count_nonzero(x[:, 0] <= 0.0)),
    )
