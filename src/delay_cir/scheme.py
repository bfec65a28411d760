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
simulated path positive without truncation or reflection; c > 0 holds on
the scheme's domain, sigma^2 < 4 a inf gamma (:func:`check_implicit`).

Baselines for comparison experiments: a truncated explicit Euler scheme in X
(which can and does go negative) and a symmetrized (absolute-value) Euler
scheme for b = 0, each marched by one explicit march.  A symmetrized row
keeps its update before reflection, from which both schemes' paths can be
read up to the first non-positive update (:func:`explicit_paths`).
"""

from __future__ import annotations

import numpy as np

from .model import ModelSpec, TimeGrid, gamma_bounds, rejected
from .noise import NonPositiveSample

Array = np.ndarray

__all__ = [
    "implicit_step",
    "implicit_residual",
    "simulate_y_paths",
    "ring_spans",
    "square_rows",
    "BASELINES",
    "check_baselines",
    "check_implicit",
    "explicit_paths",
    "truncated_euler_paths",
    "symmetrized_euler_paths",
    "NonPositiveForcing",
    "DelayNotSupported",
]


class NonPositiveForcing(ValueError):
    """a_under + b_bar z^2 <= 0: the implicit update has no positive root.

    Raised by :func:`check_implicit`, and by a march with ``node``, the target
    node k + 1 of its first step whose a_under is not positive, and its time
    ``t``: the message then starts ``step to node k + 1:``.
    """

    def __init__(self, reason: str, node=None, t=None):
        super().__init__(reason)
        self.node, self.t = node, t

    def __str__(self) -> str:
        reason = super().__str__()
        if self.node is None:
            return reason
        return f"step to node {self.node}: {reason} (t = {self.t})"


class DelayNotSupported(ValueError):
    """The requested scheme only exists for b = 0."""


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
    :class:`NonPositiveForcing` unless a_under_next + b_bar z^2 > 0 (no
    positive root exists there, e.g. at Feller equality with b = 0, z = 0; a
    NaN forcing fails the test too), and ``ValueError`` on any other
    non-finite input.
    """
    c = a_under_next + b_bar * np.square(z_delay)
    if not np.all(c > 0.0):
        raise NonPositiveForcing(
            "a_under + b_bar * z^2 must be positive for the implicit update"
        )
    s = y_prev + noise
    if not (
        np.all(np.isfinite(s))
        and np.all(np.isfinite(c))
        and np.all(np.isfinite(a_bar))
        and np.all(np.isfinite(delta))
    ):
        raise ValueError("implicit_step inputs must be finite")
    s, c = np.broadcast_arrays(s, c)
    out = _positive_root(np.atleast_1d(s), np.atleast_1d(c), a_bar, delta)
    return float(out[0]) if s.ndim == 0 else out


def _positive_root(s, c, a_bar, delta):
    """Positive root y of (1 + a_bar delta) y^2 - s y - c delta = 0 for 1-D ``s``.

    ``c`` is shaped like ``s``.  Where not s >= 0 (s < 0 or NaN) the
    conjugate form 2 c delta / (disc - s) replaces (s + disc) / (2 (1 +
    a_bar delta)), whose numerator cancels catastrophically there.

    Where s * s + q overflows, q = 4 delta (1 + a_bar delta) c (s * s itself
    overflows for |s| above about 1.34e154, q for c above about 1.8e308 /
    (4 delta (1 + a_bar delta))), s is scaled by 2^-e and c by 2^-2e, with
    the least e that brings both below 1.  That scales the discriminant by
    2^-e exactly, so it is finite wherever its value fits a float, and the
    root is for |s| up to about 1e300.  Every other entry is computed as
    sqrt(s * s + q), bit for bit as the march computes it.
    """
    one_plus = 1.0 + a_bar * delta
    disc_scale = (4.0 * delta) * one_plus
    with np.errstate(over="ignore"):
        q = disc_scale * c
        disc = s * s + q
    huge = np.isinf(disc)
    np.sqrt(disc, out=disc)
    if huge.any():
        s_huge, c_huge = s[huge], c[huge]
        e = np.maximum(np.frexp(s_huge)[1], (np.frexp(c_huge)[1] + 1) // 2)
        s_huge = np.ldexp(s_huge, -e)
        q_huge = disc_scale * np.ldexp(c_huge, -2 * e)
        disc[huge] = np.ldexp(np.sqrt(s_huge * s_huge + q_huge), e)
    out = (s + disc) / (2.0 * one_plus)
    neg = ~(s >= 0.0)
    if neg.any():
        out[neg] = (2.0 * delta) * c[neg] / (disc[neg] - s[neg])
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
# main scheme
# ---------------------------------------------------------------------------


def _increments(increments, n_steps: int | None) -> Array:
    """Validated time-major increments (steps, paths); one-dimensional input
    is one path.  ``n_steps`` is the required step count, if any."""
    inc = np.asarray(increments, dtype=float)
    inc = inc[:, None] if inc.ndim == 1 else inc
    if n_steps is not None and inc.shape[0] != n_steps:
        raise ValueError(f"expected {n_steps} increments, got {inc.shape[0]}")
    if not np.all(np.isfinite(inc)):
        raise ValueError("increments must be finite")
    return inc


def _start_values(n_nodes: int, n_paths: int, segment) -> Array:
    """Validated start X values (nodes, paths); a one-dimensional segment is
    shared by every path.

    The checks read each distinct value once: an axis that a broadcast view
    repeats (stride 0) is checked at its first entry only, so a segment of
    one level per path costs no byte per node.
    """
    seg = np.asarray(segment, dtype=float)
    if seg.shape[0] != n_nodes:
        raise ValueError(f"segment needs {n_nodes} node values, got {seg.shape[0]}")
    seg = seg[:, None] if seg.ndim == 1 else seg
    distinct = seg[tuple(slice(None, 1) if step == 0 else slice(None) for step in seg.strides)]
    if not np.all(np.isfinite(distinct)):
        raise ValueError("segment values must be finite")
    if np.any(distinct <= 0.0):
        raise NonPositiveSample("segment values must be positive")
    return np.broadcast_to(seg, (n_nodes, n_paths))


def _march_target(grid: TimeGrid, increments, window, start: int):
    """(increments, stop, array) of a march over steps start .. stop - 1.

    The increments are validated (:func:`_increments`) and must lie on the
    grid.  The array is ``window``, which must hold more than N nodes of
    ``paths`` values, or, without one, a new array of nodes -N .. K.
    """
    n_delay, n_steps = grid.n_per_delay, grid.n_steps
    inc = _increments(increments, n_steps if window is None else None)
    stop = start + inc.shape[0]
    if not 0 <= start <= stop <= n_steps:
        raise ValueError(f"steps {start} .. {stop - 1} are not on the grid")
    n_paths = inc.shape[1]
    if window is None:
        return inc, stop, np.empty((n_delay + n_steps + 1, n_paths))
    if window.shape[0] <= n_delay or window.shape[1:] != (n_paths,):
        raise ValueError(
            f"window of shape {window.shape} cannot hold {n_delay + 1} nodes "
            f"of {n_paths} paths"
        )
    return inc, stop, window


def ring_spans(length: int, first: int, count: int) -> tuple[slice, slice]:
    """Row slices of ``count`` consecutive rows of a ring window of ``length``
    rows from row ``first`` on, taken modulo ``length``: the rows up to the
    window's end, then those that wrap round to its start (often none)."""
    first %= length
    head = min(count, length - first)
    return slice(first, first + head), slice(0, count - head)


def square_rows(window: Array, first: int, count: int, out: Array) -> Array:
    """Squares of ``count`` rows of ``window`` from row ``first`` on, taken
    modulo its length, into ``out[:count]``: the X values of the nodes a ring
    window of :func:`simulate_y_paths` holds there."""
    head, tail = ring_spans(window.shape[0], first, count)
    split = head.stop - head.start
    np.square(window[head], out=out[:split])
    np.square(window[tail], out=out[split:count])
    return out[:count]


# Steps per lookahead run of the implicit march with b_bar = 0: its noise
# buffer holds this many rows of 8 bytes per path, and the per-run overhead
# is spread over as many steps.  With b_bar != 0 a run also keeps its forcing
# and the forcing's scaled copy per path, and takes half as many steps (or
# fewer, a delay's worth), so that its three buffers stay in a core's cache.
_RUN_STEPS = 32


def _implicit_march(y, inc, t_next, au, a_bar, b_bar, sigma_bar, delta, n_delay, start=0):
    """Fill nodes start+1 .. start+n of the time-major ``y`` with implicit updates.

    Node j (from -n_delay) is held in row (j + n_delay) mod len(y), so ``y``
    may be a window that holds only the nodes a step reads: len(y) > n_delay.
    Node start + k + 1 solves the implicit equation from node start + k with
    increment row k, a_under ``au[k]`` at time ``t_next[k]`` and the delayed
    node start + k + 1 - n_delay, by the root of :func:`implicit_step`.

    A delayed node lies n_delay steps back, so over a run of at most
    min(n_delay, ``_RUN_STEPS`` / 2) steps (with b_bar = 0, ``_RUN_STEPS``
    and fewer than len(y)) the forcing c = a_under + b_bar y_{k+1-N}^2 and
    the noise sigma_bar dW_k are known before the run starts.  Both are
    computed for the whole run into reused buffers, and the forcing scaled
    into a third to (4 delta)(1 + a_bar delta) c, the term the discriminant
    adds.  The step loop keeps only the root, whose ufuncs write into the
    target row; the rare conjugate branch takes the root of
    :func:`_positive_root` from the run's forcing.  Where s > 0 and s^2
    plus that term overflows, a step gives inf, and inf absorbs, so each
    run checks its last row once and takes its steps again by
    :func:`_positive_root`, which rescales the discriminant, on the paths
    that end it on inf but started it finite.  Every value is rounded as in
    :func:`implicit_step`.  With b_bar >= 0 every c is at least a_under, so
    one check that a_under > 0, which reads no path, covers every step:
    where it fails (a direct call, or gamma rounded below the bound of
    :func:`check_implicit`), its first node and time are raised before any
    step.
    """
    bad = np.flatnonzero(~(au > 0.0))
    if bad.size:
        k = int(bad[0])
        raise NonPositiveForcing(
            "a_under must be positive", node=start + k + 1, t=float(t_next[k])
        )
    rows, n_paths = y.shape
    n = inc.shape[0]
    one_plus = 1.0 + a_bar * delta
    disc_scale = (4.0 * delta) * one_plus
    # a run's first node stays in the ring until the run is done
    run = min(_RUN_STEPS, rows - 1) if b_bar == 0.0 else min(_RUN_STEPS // 2, n_delay)
    width = min(run, n)
    noise = np.empty((width, n_paths))
    # with b_bar = 0 the forcing is a_under alone, one column shared by all paths
    forcing = np.empty((width, n_paths if b_bar != 0.0 else 1))
    scaled = np.empty_like(forcing)
    s = np.empty(n_paths)
    disc = np.empty(n_paths)
    for k0 in range(0, n, run):
        k1 = min(k0 + run, n)
        c = forcing[: k1 - k0]
        if b_bar != 0.0:
            # delayed node start+k+1-N sits at row (start+k+1-N) + N = start+k+1
            square_rows(y, start + k0 + 1, k1 - k0, out=c)
            c *= b_bar
            c += au[k0:k1, None]
        else:
            c[:] = au[k0:k1, None]
        q = np.multiply(c, disc_scale, out=scaled[: k1 - k0])
        np.multiply(inc[k0:k1], sigma_bar, out=noise[: k1 - k0])
        for i in range(k1 - k0):
            node = start + k0 + i
            np.add(y[(n_delay + node) % rows], noise[i], out=s)
            np.multiply(s, s, out=disc)
            disc += q[i]
            np.sqrt(disc, out=disc)
            target = y[(n_delay + node + 1) % rows]
            np.add(s, disc, out=target)
            target /= 2.0 * one_plus
            if not s.min(initial=0.0) >= 0.0:
                # _positive_root where not s >= 0
                neg = ~(s >= 0.0)
                c_neg = np.broadcast_to(c[i], s.shape)[neg]
                target[neg] = _positive_root(s[neg], c_neg, a_bar, delta)
        # inf absorbs, so a path whose discriminant overflowed ends the run on inf
        over = np.isinf(y[(n_delay + start + k1) % rows])
        if over.any():
            over &= np.isfinite(y[(n_delay + start + k0) % rows])
            for i in range(k1 - k0 if over.any() else 0):
                node = start + k0 + i
                s_over = y[(n_delay + node) % rows, over] + noise[i, over]
                c_over = np.broadcast_to(c[i], s.shape)[over]
                y[(n_delay + node + 1) % rows, over] = _positive_root(s_over, c_over, a_bar, delta)


def simulate_y_paths(
    model: ModelSpec,
    grid: TimeGrid,
    increments: Array,
    segment,
    *,
    window: Array | None = None,
    start: int = 0,
) -> Array:
    """Vectorised drift-implicit simulation of Y over many paths, time-major.

    Parameters
    ----------
    increments : array (K, n_paths) or (K,) of Brownian increments at the
        grid resolution; with a ``window``, the n rows of steps start ..
        start + n - 1 instead.
    segment : array of X0 node values, shape (N+1,) or (N+1, n_paths).  Not
        read when a window march continues (``start`` > 0).
    window : optional array (R, n_paths) with R > N to march in, node j in
        row (j + N) mod R.  A march from ``start`` = 0 writes the segment's
        nodes -N .. 0 first; a march from ``start`` > 0 continues from the
        nodes start - N .. start that the window already holds.  Either way
        the window then holds nodes start + n + 1 - R .. start + n.

    Returns
    -------
    Array of shape (N + K + 1, n_paths) with the Y values on nodes -N .. K,
    or the ``window``.  Non-finite increments or segment values raise
    ``ValueError``.

    The march computes the root of :func:`implicit_step` inline, with the
    discriminant sqrt(s * s + 4 delta (1 + a_bar delta) c) for s = y_k +
    sigma_bar dW_k, and takes its rescaled root where s < 0 or where the
    sum under the root overflows (s about 1.34e154 or above), so every node
    equals the root of :func:`implicit_step`, bit for bit.
    """
    n_delay = grid.n_per_delay
    inc, stop, y = _march_target(grid, increments, window, start)
    if start == 0:
        seg_x = _start_values(n_delay + 1, inc.shape[1], segment)
        np.sqrt(seg_x, out=y[: n_delay + 1])
    # a_under at the target times t_{start+1} .. t_stop (implicit terms live
    # at t_{k+1}); each value is elementwise in its own node, so a window's
    # slice has the bits of a march over the whole horizon
    # (tests/test_scheme.py checks this for every gamma kind)
    t_next = grid.time(np.arange(start + 1, stop + 1))
    au = np.asarray(model.a_under(t_next), dtype=float)
    _implicit_march(
        y, inc, t_next, au, model.a_bar, model.b_bar, model.sigma_bar, grid.delta,
        n_delay, start,
    )
    return y


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


# Names of the explicit baselines that explicit_paths marches.
BASELINES = ("truncated", "symmetrized")


def check_baselines(names, model: ModelSpec) -> None:
    """Raise unless every entry of ``names`` is in :data:`BASELINES` and runs on
    ``model``: ``ValueError`` for an unknown name, :class:`DelayNotSupported`
    for the symmetrized scheme when b != 0 (it is defined for b = 0 only);
    either error's ``argument`` is ``"scheme"``."""
    for name in names:
        if name not in BASELINES:
            raise rejected(ValueError, "scheme", f"unknown scheme {name!r}")
    if "symmetrized" in names and model.b != 0.0:
        raise rejected(
            DelayNotSupported, "scheme", "the symmetrized scheme is defined for b = 0 only"
        )


def check_implicit(model: ModelSpec) -> None:
    """Raise :class:`NonPositiveForcing` unless sigma^2 < 4 a inf gamma on
    [t0, horizon] (:func:`~delay_cir.model.gamma_bounds`), the domain of the
    implicit scheme on sqrt(X) (Alfonsi 2005; Dereich, Neuenkirch & Szpruch
    2012): a_under > 0 there, rounded as ``ModelSpec.a_under`` rounds it."""
    bound = 4.0 * model.a * gamma_bounds(model.gamma, model.t0, model.horizon)[0]
    if not (bound - model.sigma**2) / 8.0 > 0.0:
        raise NonPositiveForcing(
            f"the implicit scheme needs sigma^2 < 4 a inf(gamma) = {bound}, got {model.sigma**2}"
        )


def _explicit_march(x, inc, gamma_left, a, b, sigma, delta, n_delay, symmetrized, start=0):
    """Fill nodes start+1 .. start+n of the time-major ``x`` (rows, paths)
    with explicit Euler steps of one scheme.

    Node j (from -n_delay) is held in row (j + n_delay) mod len(x), as in
    :func:`_implicit_march`.  Step k reads node start + k, the delayed node
    start + k - n_delay, ``gamma_left[k]`` = gamma(t_{start+k}) and increment
    row k, through scratch rows that every step reuses.  Truncated rows hold
    X.  ``symmetrized`` rows hold the update before reflection, v, and
    reflect on read: a step reads |v| into a scratch row as its current
    node, so the path |v| has the bits of a march that reflects on write
    (segment rows hold X > 0, their own absolute value), and as |v| >= +0,
    sqrt(max(cur, 0)) is sqrt(cur) there.  They need b = 0
    (:func:`check_baselines`).

    With b = 0 the truncated rows skip the term b x_{k-N}, and keep every
    bit: for a finite x_{k-N} the term is +-0, and d + (+-0) = d for every
    drift d but -0, where the sum may be +0.  The step then adds +-0 delta to
    x_k, which gives x_k either way unless x_k = -0.  There the drift is
    a (gamma(t_k) + 0), which is -0 only if gamma(t_k) < 0 and the product
    underflows, and gamma is positive on the grid (a model that passes
    :func:`~delay_cir.model.validate`).  A path that reaches inf or NaN is
    NaN from its next node on, with or without the term.
    """
    rows = x.shape[0]
    ring = list(x)
    u = np.empty(x.shape[1])
    v = np.empty(x.shape[1])
    reflected = np.empty(x.shape[1])
    for k, (gamma, dw) in enumerate(zip(gamma_left.tolist(), inc)):
        node = start + k
        cur = ring[(n_delay + node) % rows]
        out = ring[(n_delay + node + 1) % rows]
        # the operations, in order, of the truncated update
        #   cur + (a (gamma - cur) + b delayed) delta + sigma sqrt(max(cur, 0)) dw
        # and of the symmetrized one (b = 0), stored before its reflection
        #   cur + a (gamma - cur) delta + sigma sqrt(cur) dw,  cur = |stored|
        if symmetrized:
            cur = np.abs(cur, out=reflected)
        np.subtract(gamma, cur, out=u)
        u *= a
        if b != 0.0:
            np.multiply(ring[node % rows], b, out=v)
            u += v
        u *= delta
        np.add(cur, u, out=out)
        if symmetrized:
            np.sqrt(cur, out=u)
        else:
            np.maximum(cur, 0.0, out=u)
            np.sqrt(u, out=u)
        u *= sigma
        u *= dw
        out += u


def explicit_paths(
    model: ModelSpec,
    grid: TimeGrid,
    increments: Array,
    segment,
    scheme: str,
    *,
    window: Array | None = None,
    start: int = 0,
) -> Array:
    """One explicit Euler baseline in X, the rows it marched.

    ``scheme`` is one name from :data:`BASELINES` (see
    :func:`check_baselines`):

    * ``truncated``, with the diffusion truncated at zero,

          x_{k+1} = x_k + [a (gamma(t_k) - x_k) + b x_{k-N}] delta
                    + sigma sqrt(max(x_k, 0)) dW_k;

      its rows hold X itself;

    * ``symmetrized`` (b = 0 only), which reflects instead of truncating,

          x_{k+1} = | v_{k+1} |,  v_{k+1} = x_k + a (gamma(t_k) - x_k) delta
                                            + sigma sqrt(x_k) dW_k;

      its rows hold v, so X is their absolute value (:func:`_explicit_march`).

    The symmetrized rows carry the truncated path too: both schemes read the
    same current node x_k > 0 and compute the same v_{k+1}, bit for bit,
    until the first update v <= 0, where the truncated path first leaves
    the positive axis.  So a path with a v <= 0 flags the truncated scheme,
    and one with a v == 0 (|v| <= 0) the symmetrized one.

    Increments, segment, ``window`` and ``start`` are as in
    :func:`simulate_y_paths`, except that the segment holds X values.
    Returns the rows on nodes -N .. K, shape (N + K + 1, n_paths), or the
    ``window``.  Negative excursions of the truncated scheme are left in
    place -- counting them is the point of this baseline.
    """
    check_baselines((scheme,), model)
    n_delay = grid.n_per_delay
    inc, stop, x = _march_target(grid, increments, window, start)
    if start == 0:
        x[: n_delay + 1] = _start_values(n_delay + 1, inc.shape[1], segment)
    # gamma at the left times t_start .. t_{stop-1}, sliced as in simulate_y_paths
    gamma_left = np.asarray(model.gamma_at(grid.time(np.arange(start, stop))), dtype=float)
    _explicit_march(
        x, inc, gamma_left, model.a, model.b, model.sigma, grid.delta, n_delay,
        scheme == "symmetrized", start,
    )
    return x


def _counted(grid: TimeGrid, x: Array) -> tuple[Array, Array]:
    """X on nodes -N .. K and its per-path count of nodes k >= 0 with x_k <= 0."""
    return x, np.count_nonzero(x[grid.n_per_delay :] <= 0.0, axis=0)


def truncated_euler_paths(
    model: ModelSpec, grid: TimeGrid, increments: Array, segment
) -> tuple[Array, Array]:
    """The truncated scheme of :func:`explicit_paths` over the whole horizon.

    Returns (paths on nodes -N .. K, shape (N + K + 1, n_paths), and the
    per-path count of nodes k >= 0 with x_k <= 0).
    """
    return _counted(grid, explicit_paths(model, grid, increments, segment, "truncated"))


def symmetrized_euler_paths(
    model: ModelSpec, grid: TimeGrid, increments: Array, segment
) -> tuple[Array, Array]:
    """The symmetrized scheme of :func:`explicit_paths` over the whole horizon
    (b = 0 only), its rows reflected to X; returns as
    :func:`truncated_euler_paths`."""
    v = explicit_paths(model, grid, increments, segment, "symmetrized")
    return _counted(grid, np.abs(v, out=v))
