"""Model description, parameter conditions and the delay-aligned time grid.

The simulated equation is

    dX(t) = [a (gamma(t) - X(t)) + b X(t - tau)] dt + sigma sqrt(X(t)) dW(t)

on [t0, T] with X = X0 on [t0 - tau, t0].  Everything downstream works on the
square-root transform Y = sqrt(X), whose drift uses the reparameterised
coefficients

    a_under(t) = (4 a gamma(t) - sigma^2) / 8,   a_bar = a / 2,
    b_bar = b / 2,                               sigma_bar = sigma / 2.

This module holds the immutable specification types, the mean-level families
for gamma, the initial-segment families, grid construction (step = tau / N so
the delay is an exact index shift), and ``validate`` which summarises the
parameter conditions in a :class:`ConditionReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

Array = np.ndarray

__all__ = [
    "GAMMA_PARAMS",
    "INITIAL_PARAMS",
    "GammaSpec",
    "InitialSegmentSpec",
    "ModelSpec",
    "TimeGrid",
    "ConditionReport",
    "gamma_eval",
    "gamma_bounds",
    "build_grid",
    "check_grid",
    "check_segment_window",
    "validate",
    "rejected",
    "check_fits_float",
    "off_grid",
    "NonPositiveParameter",
    "HorizonBeforeStart",
    "GammaNotPositive",
    "OutOfDomain",
    "GridMisaligned",
    "OutOfRange",
]


class NonPositiveParameter(ValueError):
    """A parameter that must be positive (or nonnegative) and finite is not."""


class HorizonBeforeStart(ValueError):
    """The horizon T does not lie strictly after the start time t0."""


class GammaNotPositive(ValueError):
    """The mean level gamma is not strictly positive on the horizon."""


class OutOfDomain(ValueError):
    """A time argument lies outside the domain the object is defined on."""


class GridMisaligned(ValueError):
    """Requested times are not representable on the delay-aligned grid."""


class OutOfRange(ValueError):
    """A parameter, or a quantity derived from the parameters, leaves the float range."""


def rejected(kind, argument: str | None, reason: str) -> ValueError:
    """``kind(reason)`` naming the rejected ``argument`` in its ``argument``
    attribute; None for a rule over several arguments."""
    exc = kind(reason)
    exc.argument = argument
    return exc


def check_fits_float(argument: str, value: int) -> None:
    """Raise :class:`OutOfRange`, naming ``argument``, unless the integer
    ``value`` converts to a float (int to float raises OverflowError)."""
    try:
        float(value)
    except OverflowError:
        raise rejected(
            OutOfRange, argument, f"a {value.bit_length()}-bit integer is too large for a float"
        ) from None


# ---------------------------------------------------------------------------
# gamma families
# ---------------------------------------------------------------------------

# The names of each kind's params, in order, which validate's errors give as
# ``argument``; the one list of a kind's parameters.
GAMMA_PARAMS = {
    "constant": ("gamma0",),
    "affine": ("gamma0", "slope"),
    "sinusoid": ("gamma0", "amplitude", "omega"),
}
INITIAL_PARAMS = {"constant": ("level",), "lognormal": ("median", "log_sd"), "table": ()}


def _check_kind(table: dict, what: str, kind: str, params: tuple) -> None:
    """Raise unless ``kind`` is a key of ``table`` and ``params`` holds its parameters."""
    if kind not in table:
        raise ValueError(f"unknown {what} kind {kind!r}")
    if len(params) != len(table[kind]):
        raise ValueError(
            f"{what} kind {kind!r} takes {len(table[kind])} parameters, got {len(params)}"
        )


@dataclass(frozen=True)
class GammaSpec:
    """Deterministic mean level gamma(t), parameterised by elapsed time t - t0.

    Supported kinds:

    ``constant``   params = (gamma0,)            gamma(t) = gamma0
    ``affine``     params = (gamma0, slope)      gamma(t) = gamma0 + slope (t - t0)
    ``sinusoid``   params = (gamma0, A, omega)   gamma(t) = gamma0 + A sin(omega (t - t0))
    """

    kind: Literal["constant", "affine", "sinusoid"]
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_kind(GAMMA_PARAMS, "gamma", self.kind, self.params)
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))

    @classmethod
    def constant(cls, gamma0: float) -> "GammaSpec":
        return cls("constant", (gamma0,))

    @classmethod
    def affine(cls, gamma0: float, slope: float) -> "GammaSpec":
        return cls("affine", (gamma0, slope))

    @classmethod
    def sinusoid(cls, gamma0: float, amplitude: float, omega: float) -> "GammaSpec":
        return cls("sinusoid", (gamma0, amplitude, omega))


def gamma_eval(
    gamma: GammaSpec,
    t: float | Array,
    t0: float = 0.0,
    domain: tuple[float, float] | None = None,
):
    """Evaluate gamma(t).  ``domain=(lo, hi)`` additionally enforces lo <= t <= hi.

    Raises
    ------
    OutOfDomain
        If a domain is given and any requested time falls outside it.
    """
    t_arr = np.asarray(t, dtype=float)
    if domain is not None:
        lo, hi = domain
        tol = 1e-12 * max(1.0, abs(lo), abs(hi))
        if np.any(t_arr < lo - tol) or np.any(t_arr > hi + tol):
            raise OutOfDomain(f"time {t!r} outside [{lo}, {hi}]")
    s = t_arr - t0
    if gamma.kind == "constant":
        out = np.full_like(s, gamma.params[0])
    elif gamma.kind == "affine":
        gamma0, slope = gamma.params
        out = gamma0 + slope * s
    else:
        gamma0, amp, omega = gamma.params
        out = gamma0 + amp * np.sin(omega * s)
    return out if np.ndim(t) else float(out)


def _sin_extrema(theta0: float, theta1: float) -> tuple[float, float]:
    """Exact (min, max) of sin over the closed interval [theta0, theta1]."""
    if theta1 < theta0:
        theta0, theta1 = theta1, theta0
    two_pi = 2.0 * math.pi

    def hits(target: float) -> bool:
        return math.ceil((theta0 - target) / two_pi - 1e-12) <= math.floor(
            (theta1 - target) / two_pi + 1e-12
        )

    s0, s1 = math.sin(theta0), math.sin(theta1)
    hi = 1.0 if hits(0.5 * math.pi) else max(s0, s1)
    lo = -1.0 if hits(-0.5 * math.pi) else min(s0, s1)
    return lo, hi


def gamma_bounds(gamma: GammaSpec, t0: float, t_end: float) -> tuple[float, float, float]:
    """Infimum, supremum and Hölder-1/2 constant of gamma on [t0, t_end].

    The returned constant L satisfies |gamma(t) - gamma(s)| <= L |t - s|^(1/2)
    on [t0, t_end]; for the built-in Lipschitz families it is the Lipschitz
    constant scaled by sqrt(t_end - t0).
    """
    if t_end <= t0:
        raise HorizonBeforeStart(f"t_end={t_end} must exceed t0={t0}")
    span = t_end - t0
    if gamma.kind == "constant":
        g0 = gamma.params[0]
        return g0, g0, 0.0
    if gamma.kind == "affine":
        g0, slope = gamma.params
        lo, hi = sorted((g0, g0 + slope * span))
        return lo, hi, abs(slope) * math.sqrt(span)
    g0, amp, omega = gamma.params
    smin, smax = _sin_extrema(0.0, omega * span)
    vals = (amp * smin, amp * smax)
    return g0 + min(vals), g0 + max(vals), abs(amp * omega) * math.sqrt(span)


# ---------------------------------------------------------------------------
# initial segment families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InitialSegmentSpec:
    """Initial segment X0 on [t0 - tau, t0].

    ``constant``    params = (level,); X0(t) = level.
    ``table``       points = ((t, value), ...); piecewise-linear through the
                    given knots, which must cover [t0 - tau, t0].
    ``lognormal``   params = (median, log_sd); a single lognormal level per
                    path, constant in time: X0(t) = median * exp(log_sd * Z).
    """

    kind: Literal["constant", "table", "lognormal"]
    params: tuple[float, ...] = ()
    points: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        _check_kind(INITIAL_PARAMS, "initial-segment", self.kind, self.params)
        if self.kind == "table":
            if len(self.points) < 2:
                raise ValueError("table segment needs at least two (t, value) knots")
            ts = [p[0] for p in self.points]
            if sorted(ts) != ts:
                raise ValueError("table knots must be sorted by time")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        object.__setattr__(
            self, "points", tuple((float(t), float(v)) for t, v in self.points)
        )

    @classmethod
    def constant(cls, x0: float) -> "InitialSegmentSpec":
        return cls("constant", (x0,))

    @classmethod
    def table(cls, points) -> "InitialSegmentSpec":
        return cls("table", (), tuple((float(t), float(v)) for t, v in points))

    @classmethod
    def lognormal(cls, median: float, log_sd: float) -> "InitialSegmentSpec":
        return cls("lognormal", (median, log_sd))

    @property
    def is_random(self) -> bool:
        return self.kind == "lognormal"

    def mean_at(self, t: float | Array):
        """E[X0(t)]; for the lognormal level this is median * exp(log_sd^2 / 2)."""
        t_arr = np.asarray(t, dtype=float)
        if self.kind == "constant":
            out = np.full_like(t_arr, self.params[0])
        elif self.kind == "table":
            ts = np.array([p[0] for p in self.points])
            vs = np.array([p[1] for p in self.points])
            out = np.interp(t_arr, ts, vs)
        else:
            median, log_sd = self.params
            out = np.full_like(t_arr, median * math.exp(0.5 * log_sd**2))
        return out if np.ndim(t) else float(out)


def check_segment_window(initial: InitialSegmentSpec, t0: float, tau: float) -> None:
    """Raise :class:`OutOfDomain`, naming ``"points"`` as its ``argument``,
    unless a table's knots cover [t0 - tau, t0]."""
    if initial.kind != "table":
        return
    first, last = initial.points[0][0], initial.points[-1][0]
    tol = 1e-9 * max(1.0, abs(t0), tau)
    if first > t0 - tau + tol or last < t0 - tol:
        raise rejected(
            OutOfDomain, "points",
            f"segment table covers [{first}, {last}], not [{t0 - tau}, {t0}]",
        )


# ---------------------------------------------------------------------------
# model and grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Full parameter set of the delayed equation on [t0, horizon]."""

    a: float
    b: float
    sigma: float
    tau: float
    t0: float
    horizon: float
    gamma: GammaSpec
    initial: InitialSegmentSpec

    @property
    def a_bar(self) -> float:
        return 0.5 * self.a

    @property
    def b_bar(self) -> float:
        return 0.5 * self.b

    @property
    def sigma_bar(self) -> float:
        return 0.5 * self.sigma

    def gamma_at(self, t: float | Array):
        """gamma(t) with the domain check on [t0 - tau, horizon]."""
        return gamma_eval(
            self.gamma, t, self.t0, domain=(self.t0 - self.tau, self.horizon)
        )

    def a_under(self, t: float | Array):
        """a_under(t) = (4 a gamma(t) - sigma^2) / 8, the transformed mean-level drift."""
        g = gamma_eval(self.gamma, t, self.t0)
        return (4.0 * self.a * g - self.sigma**2) / 8.0


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = t0 + k tau / N, k = -N .. K.

    The step is stored as the exact pair (tau, N); ``delta`` is the float
    quotient.  The delay tau equals N steps exactly, so the delayed node of
    index k is the node of index k - N: delay lookups are pure integer
    arithmetic and never compare floating-point times.
    """

    t0: float
    tau: float
    n_per_delay: int
    n_steps: int

    def __post_init__(self) -> None:
        if self.n_per_delay < 1:
            raise rejected(
                NonPositiveParameter, "n_per_delay", "grid needs at least one step per delay"
            )
        if self.n_steps < 1:
            raise rejected(HorizonBeforeStart, "n_steps", "grid needs at least one step after t0")
        # one path's float64 nodes k = -N .. K must fit in a NumPy array
        nodes = self.n_per_delay + self.n_steps + 1
        if nodes > np.iinfo(np.intp).max // 8:
            raise rejected(
                OutOfRange, "n_steps", f"{nodes:.3g} nodes per path exceed the largest array"
            )

    @property
    def delta(self) -> float:
        return self.tau / self.n_per_delay

    def time(self, k: int | Array):
        """Node time t_k for k in [-N, K]."""
        return self.t0 + np.asarray(k, dtype=float) * self.delta

    def times(self) -> Array:
        """All node times, ordered k = -N .. K."""
        return self.t0 + np.arange(-self.n_per_delay, self.n_steps + 1) * self.delta


def off_grid(ratio: float, steps: int) -> bool:
    """Whether ``ratio``, a time or a length in grid steps, misses the whole
    number ``steps`` by more than 1e-9 max(1, |ratio|): the one tolerance of
    the grid's rules, relative, so that it scales with the step count."""
    return abs(ratio - steps) > 1e-9 * max(1.0, abs(ratio))


def build_grid(spec: ModelSpec, n_per_delay: int) -> TimeGrid:
    """Grid with N = ``n_per_delay`` steps per delay covering [t0, horizon].

    Raises
    ------
    NonPositiveParameter, HorizonBeforeStart, GridMisaligned
        If N < 1 (``argument`` ``"n_per_delay"``) or no step lies after t0
        (``"n_steps"``; both from :class:`TimeGrid`), or if horizon - t0 is
        not an integer multiple of tau / N (``"horizon"``).
    OutOfRange
        If N is too large for a float (``argument`` ``"n_per_delay"``) or
        the steps (horizon - t0) N / tau are not finite.
    """
    check_fits_float("n_per_delay", n_per_delay)
    ratio = (spec.horizon - spec.t0) * n_per_delay / spec.tau
    if not math.isfinite(ratio):
        raise OutOfRange(f"(horizon - t0) N / tau leaves the float range, N = {n_per_delay:.3g}")
    grid = TimeGrid(spec.t0, spec.tau, n_per_delay, round(ratio))
    if off_grid(ratio, grid.n_steps):
        raise rejected(
            GridMisaligned, "horizon",
            f"horizon - t0 = {spec.horizon - spec.t0} is not a whole number of "
            f"steps tau/N = {grid.delta}",
        )
    return grid


def check_grid(spec: ModelSpec, grid: TimeGrid) -> None:
    """Raise :class:`GridMisaligned`, naming ``"grid"`` as its ``argument``,
    unless ``grid`` is ``build_grid(spec, grid.n_per_delay)``: the model's
    start, delay and horizon."""
    if grid != build_grid(spec, grid.n_per_delay):
        raise rejected(
            GridMisaligned, "grid", f"{grid} is not the model's grid of N = {grid.n_per_delay}"
        )


# ---------------------------------------------------------------------------
# parameter conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Summary of the parameter conditions behind the convergence guarantees.

    feller_ok          sigma^2 <= 2 a inf(gamma)  (boundary never reached for b = 0)
    strong_feller_ok   sigma^2 <  2 a inf(gamma)  (strict version; the strong
                       error analysis needs it)
    p_max              supremum of the L^p orders with a strong error guarantee,
                       p_max = (2 a inf(gamma) / sigma^2) * 2 / (1 + m)
    nu                 2 a inf(gamma) / sigma^2 - 1
    m                  number of delay windows, ceil((horizon - t0) / tau)
    """

    feller_ok: bool
    strong_feller_ok: bool
    p_max: float
    nu: float
    m: int


# The least and the greatest normal that a draw gives, ndtri(2^-54) and
# ndtri(1 - 2^-53) (see noise._finish; SciPy 1.17.1), written out
# so that validate loads no SciPy.
_Z_LO = -8.292361075813597
_Z_HI = 8.209536151601387


def validate(spec: ModelSpec) -> ConditionReport:
    """Check hard invariants of ``spec`` and report the soft conditions.

    Hard violations raise; everything else (e.g. a violated Feller condition)
    is reported through the returned flags so callers can decide what they
    need.  An error of one parameter names it in its ``argument`` attribute:
    a field (``"a"``, ``"b"``, ``"sigma"``, ``"tau"``, ``"t0"``,
    ``"horizon"``), a parameter of gamma or of the start (a name in
    :data:`GAMMA_PARAMS` or :data:`INITIAL_PARAMS`) or a table's knots
    (``"points"``); a rule over several parameters names None.
    """
    for name in ("a", "sigma", "tau"):
        value = getattr(spec, name)
        if not 0.0 < value < math.inf:
            raise rejected(
                NonPositiveParameter, name, f"{name} must be positive and finite, got {value}"
            )
    if not 0.0 <= spec.b < math.inf:
        raise rejected(
            NonPositiveParameter, "b", f"b must be nonnegative and finite, got {spec.b}"
        )
    if not math.isfinite(spec.t0):
        raise rejected(OutOfRange, "t0", f"t0 must be finite, got {spec.t0}")
    if not spec.t0 < spec.horizon < math.inf:
        raise rejected(
            HorizonBeforeStart, "horizon",
            f"horizon={spec.horizon} must be finite and exceed t0={spec.t0}",
        )
    for name, value in zip(GAMMA_PARAMS[spec.gamma.kind], spec.gamma.params):
        if not math.isfinite(value):
            raise rejected(OutOfRange, name, f"gamma {name} must be finite, got {value}")
    if spec.gamma.kind == "sinusoid":
        # gamma_bounds takes the sine of the last phase
        omega = spec.gamma.params[2]
        if not math.isfinite(omega * (spec.horizon - spec.t0)):
            raise OutOfRange(
                f"the sinusoid's last phase omega (horizon - t0) leaves the float range, "
                f"omega = {omega}"
            )
    lo, _, _ = gamma_bounds(spec.gamma, spec.t0, spec.horizon)
    if lo <= 0.0:
        # gamma0 alone sets a constant gamma
        only = "gamma0" if spec.gamma.kind == "constant" else None
        raise rejected(
            GammaNotPositive, only, f"inf gamma = {lo} on [{spec.t0}, {spec.horizon}]"
        )
    init = spec.initial
    if init.kind == "table":
        if not all(math.isfinite(t) and 0.0 < v < math.inf for t, v in init.points):
            raise rejected(
                NonPositiveParameter, "points",
                "initial table needs finite times and positive, finite values",
            )
    else:
        name, value = INITIAL_PARAMS[init.kind][0], init.params[0]
        if not 0.0 < value < math.inf:
            raise rejected(
                NonPositiveParameter, name,
                f"initial {name} must be positive and finite, got {value}",
            )
    check_segment_window(init, spec.t0, spec.tau)
    if init.is_random:
        _check_lognormal(init)
    # float ** raises OverflowError, and a zero sigma^2 divides below
    if not 0.0 < spec.sigma * spec.sigma < math.inf:
        raise rejected(
            OutOfRange, "sigma", f"sigma^2 leaves the float range, sigma = {spec.sigma}"
        )
    span = spec.horizon - spec.t0
    if span / spec.tau == math.inf:
        raise OutOfRange(f"(horizon - t0) / tau leaves the float range, tau = {spec.tau}")
    m = math.ceil(span / spec.tau / (1.0 + 1e-12))
    ratio = 2.0 * spec.a * lo / spec.sigma**2
    feller_ok = spec.sigma**2 <= 2.0 * spec.a * lo
    strong_feller_ok = spec.sigma**2 < 2.0 * spec.a * lo
    half = (1 + m) / 2.0  # exact: small half-integer
    p_max = ratio / half
    # nu is derived from the rounded product so that the report satisfies
    # p_max * (1 + m) / 2 == nu + 1 exactly in floating arithmetic (the raw
    # divide-then-multiply round trip can be one ulp off the original ratio).
    nu = p_max * half - 1.0
    return ConditionReport(
        feller_ok=feller_ok,
        strong_feller_ok=strong_feller_ok,
        p_max=p_max,
        nu=nu,
        m=m,
    )


def _check_lognormal(init: InitialSegmentSpec) -> None:
    """Raise unless the lognormal start's mean and every level it can draw,
    median exp(log_sd z) for z in [_Z_LO, _Z_HI], are positive and finite."""
    median, log_sd = init.params
    if not 0.0 <= log_sd < math.inf:
        raise rejected(
            NonPositiveParameter, "log_sd",
            f"initial log_sd must be nonnegative and finite, got {log_sd}",
        )
    # float ** and math.exp raise OverflowError, a product overflows to inf;
    # the mean is constant in time
    try:
        mean = init.mean_at(0.0)
    except OverflowError:
        mean = math.inf
    if mean == math.inf:
        raise OutOfRange(
            f"E[X0] = median exp(log_sd^2 / 2) leaves the float range, log_sd = {log_sd}"
        )
    # the levels are computed as noise.sample_segment computes them, and
    # rise with z
    lowest = median * math.exp(log_sd * _Z_LO)
    try:
        highest = median * math.exp(log_sd * _Z_HI)
    except OverflowError:
        highest = math.inf
    if lowest == 0.0 or highest == math.inf:
        raise rejected(
            OutOfRange, "log_sd",
            f"the drawn levels median exp(log_sd z), z in [{_Z_LO:.4g}, {_Z_HI:.4g}], "
            f"run from {lowest} to {highest}: not all positive and finite",
        )
