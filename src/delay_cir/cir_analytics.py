"""Closed-form and quadrature results for the classical (no-delay) CIR process.

For dX = a (gamma - X) dt + sigma sqrt(X) dW with X(t0) = x0 > 0 and
Feller ratio g = 2 a gamma / sigma^2 the module provides

* the Laplace transform E[exp(-u X(t))] (exact closed form),
* negative moments E[X(t)^{-p}]: finite for p < g (computed by desingularised
  adaptive quadrature), infinite for p >= g,
* the constants L_p with E[X(t)^{-p}] <= L_p e^{a p (t - t0)} / x0^p,
* the grid recursion for the mean of the *delayed* equation (integrating
  factor plus composite Simpson sub-steps), against a closed form for b = 0.

These are the oracles the Monte Carlo experiments test the scheme against;
they depend on the model description only, not on the scheme or the noise.
``scipy.integrate.quad`` is imported by the negative-moment quadrature when
it first runs: no other oracle needs it, and its import pulls in
``scipy.optimize``, ``sparse`` and ``linalg``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, NonPositiveParameter, TimeGrid, gamma_eval

Array = np.ndarray

__all__ = [
    "CIRParams",
    "NegMomentResult",
    "MeanCurve",
    "laplace_transform",
    "neg_moment",
    "lp_constant",
    "classical_mean",
    "mean_delay_curve",
    "NonPositiveElapsed",
    "ElapsedOutOfRange",
    "FellerRatioTooSmall",
    "QuadratureNotConverged",
    "OrderOutOfRange",
    "StrongFellerViolated",
]


class NonPositiveElapsed(ValueError):
    """The evaluation time does not lie strictly after t0; ``argument`` names it."""

    argument = "t"


class ElapsedOutOfRange(ValueError):
    """The elapsed time t - t0 is too short or too long for an oracle to be
    evaluated in floating point; ``argument`` names it."""

    argument = "t"


class FellerRatioTooSmall(ValueError):
    """2 a gamma / sigma^2 <= 1: the origin is attainable and the result undefined."""


class QuadratureNotConverged(RuntimeError):
    """Adaptive quadrature could not reach the requested relative tolerance."""


class OrderOutOfRange(ValueError):
    """Moment order p outside the range the formula covers."""


class StrongFellerViolated(ValueError):
    """sigma^2 >= 2 a gamma: the strict Feller condition of the strong error
    analysis fails."""


_GAMMA_FN_MAX = 50.0


def _gamma_fn(p: float) -> float:
    # math.gamma is a Lanczos-class implementation; restrict to the window
    # where its relative error is comfortably below 1e-12.
    if not 0.0 < p <= _GAMMA_FN_MAX:
        raise OrderOutOfRange(f"gamma-function order must lie in (0, {_GAMMA_FN_MAX}], got {p}")
    return math.gamma(p)


@dataclass(frozen=True)
class CIRParams:
    """Classical CIR parameters: dX = a (gamma - X) dt + sigma sqrt(X) dW."""

    a: float
    gamma: float
    sigma: float
    x0: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        for name in ("a", "gamma", "sigma", "x0"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise NonPositiveParameter(
                    f"{name} must be positive and finite, got {getattr(self, name)}"
                )

    @property
    def feller_ratio(self) -> float:
        return 2.0 * self.a * self.gamma / self.sigma**2

    @classmethod
    def from_model(cls, model: ModelSpec) -> "CIRParams":
        """The b = 0 process of a constant-gamma ``model``, started from E[X0(t0)]."""
        return cls(
            a=model.a, gamma=model.gamma.params[0], sigma=model.sigma,
            x0=float(model.initial.mean_at(model.t0)), t0=model.t0,
        )


def _transform_coeffs(params: CIRParams, s: float) -> tuple[float, float]:
    """(L, zeta): L = sigma^2 (1 - e^{-a s}) / (4 a), zeta = x0 e^{-a s} / L.

    L is computed as -sigma^2 expm1(-a s) / (4 a), which stays positive where
    a s is below the rounding of 1 - e^{-a s}; where a s itself underflows, L
    is 0 and the elapsed time is out of range.
    """
    decay = math.exp(-params.a * s)
    big_l = -(params.sigma**2) * math.expm1(-params.a * s) / (4.0 * params.a)
    if big_l == 0.0:
        raise ElapsedOutOfRange(
            f"elapsed time {s} is too short: sigma^2 (1 - e^(-a s)) / (4 a) rounds to 0"
        )
    zeta = params.x0 * decay / big_l
    return big_l, zeta


def laplace_transform(params: CIRParams, u: float, t: float) -> float:
    """E[exp(-u X(t))] for u >= 0 and t > t0, in closed form.

        E[e^{-u X(t)}] = (2 u L + 1)^{-g} exp(-u L zeta / (2 u L + 1)),

    with g the Feller ratio, L = sigma^2 (1 - e^{-a s}) / (4 a),
    zeta = x0 e^{-a s} / L and s = t - t0.
    """
    if u < 0.0:
        raise ValueError(f"u must be nonnegative, got {u}")
    s = t - params.t0
    if s <= 0.0:
        raise NonPositiveElapsed(f"need t > t0, got elapsed {s}")
    big_l, zeta = _transform_coeffs(params, s)
    base = 2.0 * u * big_l + 1.0
    return base ** (-params.feller_ratio) * math.exp(-u * big_l * zeta / base)


# ---------------------------------------------------------------------------
# negative moments
# ---------------------------------------------------------------------------

_EXP_CUTOFF = 745.0  # e^{-x} underflows to 0 a little beyond this
# |x| up to this keeps e^x in [m, 1 / m], m the least normal float
_LOG_NORMAL = -math.log(sys.float_info.min)


def _quad_piece(f, lo: float, hi: float, rel_tol: float) -> tuple[float, float]:
    if hi <= lo:
        return 0.0, 0.0
    from scipy.integrate import quad

    inner = [b for b in (1e-3, 0.1, 1.0, 10.0, 100.0) if lo < b < hi]
    # ask for a tenth of the target, but never below QUADPACK's epsrel floor
    eps = max(min(rel_tol, 1e-9) * 0.1, 1.5e-14)
    val, err = quad(f, lo, hi, points=inner or None, limit=200, epsabs=0.0,
                    epsrel=eps)
    return val, err


def _neg_moment_integral(p: float, alpha: float, zeta: float, rel_tol: float):
    """integral_0^{zeta/2} y^{p-1} (1 - 2 y / zeta)^alpha e^{-y} dy.

    Split at zeta/4.  Algebraic endpoint singularities (p < 1 at the left,
    alpha < 0 at the right) are removed exactly by the power substitutions
    u = y^p and w = z^{1+alpha}, which turn the weighted integrands into
    bounded ones with vanishing endpoint derivatives.
    """
    half = 0.5 * zeta
    quarter = 0.25 * zeta

    # left piece: [0, min(zeta/4, cutoff)]
    hi = min(quarter, _EXP_CUTOFF)

    def phi(y: float) -> float:
        return (1.0 - y / half) ** alpha * math.exp(-y)

    if p >= 1.0:
        left, left_err = _quad_piece(lambda y: y ** (p - 1.0) * phi(y), 0.0, hi, rel_tol)
    else:
        # u = y^p  =>  y^{p-1} dy = du / p
        left, left_err = _quad_piece(
            lambda u: phi(u ** (1.0 / p)) / p, 0.0, hi**p, rel_tol
        )

    # right piece: [zeta/4, zeta/2], in z = 1 - 2 y / zeta over (0, 1/2]
    if quarter > _EXP_CUTOFF:
        return left, left_err  # right piece below 1e-300: negligible

    def right_integrand(z: float) -> float:
        return (1.0 - z) ** (p - 1.0) * math.exp(-half * (1.0 - z))

    scale = half**p
    if alpha >= 0.0:
        right, right_err = _quad_piece(
            lambda z: scale * z**alpha * right_integrand(z), 0.0, 0.5, rel_tol
        )
    else:
        # w = z^{1+alpha}  =>  z^alpha dz = dw / (1 + alpha)
        beta = 1.0 + alpha
        right, right_err = _quad_piece(
            lambda w: scale / beta * right_integrand(w ** (1.0 / beta)),
            0.0,
            0.5**beta,
            rel_tol,
        )
    return left + right, left_err + right_err


@dataclass(frozen=True)
class NegMomentResult:
    """E[X(t)^{-p}]: ``value`` is ``math.inf`` when the moment diverges."""

    value: float
    bound: float | None
    abs_error: float


def neg_moment(
    params: CIRParams, p: float, t: float, rel_tol: float = 1e-8
) -> NegMomentResult:
    """E[X(t)^{-p}] for p > 0 and t > t0.

    Divergence (p >= Feller ratio g) is reported with ``value = inf`` rather
    than an error.  The finite branch requires g > 1 and evaluates

        e^{a p s} / (Gamma(p) x0^p) *
        integral_0^{zeta/2} y^{p-1} (1 - 2 y / zeta)^{g-p-1} e^{-y} dy

    with s = t - t0, to a relative tolerance ``rel_tol`` (default 1e-8).
    ``bound`` carries L_p e^{a p s} / x0^p whenever the constant L_p applies.
    Where e^{a p s} or x0^p lies outside [m, 1 / m], m the least normal float,
    :class:`ElapsedOutOfRange` or :class:`OrderOutOfRange` is raised first.
    """
    if p <= 0.0:
        raise OrderOutOfRange(f"need p > 0, got {p}")
    s = t - params.t0
    if s <= 0.0:
        raise NonPositiveElapsed(f"need t > t0, got elapsed {s}")
    g = params.feller_ratio
    if p >= g:
        return NegMomentResult(value=math.inf, bound=None, abs_error=0.0)
    if g <= 1.0:
        raise FellerRatioTooSmall(f"finite negative moments need 2 a gamma / sigma^2 > 1, got {g}")

    gamma_p = _gamma_fn(p)  # checks the order before the quadrature runs
    if params.a * p * s > _LOG_NORMAL:
        raise ElapsedOutOfRange(f"elapsed time {s} is too long: e^(a p s) leaves the float range")
    if abs(p * math.log(params.x0)) > _LOG_NORMAL:
        raise OrderOutOfRange(f"x0^p leaves the float range at x0 = {params.x0}, p = {p}")
    _, zeta = _transform_coeffs(params, s)
    alpha = g - p - 1.0
    integral, abs_err = _neg_moment_integral(p, alpha, zeta, rel_tol)
    if 0.0 <= integral < sys.float_info.min:
        raise ElapsedOutOfRange(
            f"elapsed time {s} is too long: the negative-moment integral "
            f"underflows (zeta = {zeta})"
        )
    if not math.isfinite(integral) or integral <= 0.0 or abs_err > rel_tol * integral:
        raise QuadratureNotConverged(
            f"negative-moment quadrature error {abs_err} too large for value {integral}"
        )
    prefactor = math.exp(params.a * p * s) / (gamma_p * params.x0**p)
    try:
        bound = lp_constant(g, p) * math.exp(params.a * p * s) / params.x0**p
    except OrderOutOfRange:
        bound = None
    return NegMomentResult(
        value=prefactor * integral, bound=bound, abs_error=prefactor * abs_err
    )


def lp_constant(g: float, p: float) -> float:
    """Constant L_p with E[X(t)^{-p}] <= L_p e^{a p (t - t0)} / x0^p.

    L_p = 1 when 0 < p <= g - 1 (the clean regime), and

        L_p = 2^{p+1-g} (1 + 2^{p-1} p^p e^{-p} / (Gamma(p) (g - p)))

    when g - 1 < p < g and p >= 1; an order p < 1 above g - 1 is rejected.
    """
    if g <= 1.0:
        raise FellerRatioTooSmall(f"need Feller ratio > 1, got {g}")
    if p >= g:
        raise OrderOutOfRange(f"negative moment of order p={p} diverges for ratio g={g}")
    if p <= 0.0:
        raise OrderOutOfRange(f"need p > 0, got {p}")
    if p <= g - 1.0:
        return 1.0
    if p < 1.0:
        raise OrderOutOfRange(f"p={p} < 1 is only covered for p <= g - 1 = {g - 1.0}")
    return 2.0 ** (p + 1.0 - g) * (
        1.0 + 2.0 ** (p - 1.0) * p**p * math.exp(-p) / (_gamma_fn(p) * (g - p))
    )


# ---------------------------------------------------------------------------
# mean of the delayed equation
# ---------------------------------------------------------------------------


def classical_mean(params: CIRParams, t: float | Array):
    """E[X(t)] = gamma + (x0 - gamma) e^{-a (t - t0)} for the b = 0 process."""
    s = np.asarray(t, dtype=float) - params.t0
    out = params.gamma + (params.x0 - params.gamma) * np.exp(-params.a * s)
    return out if np.ndim(t) else float(out)


@dataclass(frozen=True)
class MeanCurve:
    """E[X(t_k)] on the grid nodes k = 0 .. K."""

    times: Array
    means: Array


def mean_delay_curve(model: ModelSpec, grid: TimeGrid, substeps: int = 64) -> MeanCurve:
    """Mean m(t) = E[X(t)] of the delayed equation on the grid nodes.

    m solves the delay ODE m'(t) = a (gamma(t) - m(t)) + b m(t - tau), which
    the integrating factor turns into the exact interval recursion

        m(t + h) = e^{-a h} m(t)
                   + integral_t^{t+h} e^{-a (t + h - u)} [a gamma(u) + b m(u - tau)] du.

    The integral is evaluated by Simpson sub-steps, ``substeps`` (>= 32) per
    grid step; delayed midpoint values come from three-point quadratic
    interpolation on the sub-grid.  E[X0(.)] on [t0 - tau, t0] comes from the
    model's initial-segment specification.

    The march goes delay by delay (the method of steps): every value the
    integral of a sub-step reads lies one delay, ``N * substeps`` sub-steps,
    back, so over a run of that many sub-steps the integrals are computed
    together as arrays.  Only m(t + h) = e^{-a h} m(t) + integral stays a
    sequential loop, over Python floats.  Each value is rounded exactly as in
    a sub-step by sub-step march.
    """
    if substeps < 32:
        raise ValueError(f"need at least 32 quadrature sub-steps per grid step, got {substeps}")
    n_delay, n_steps = grid.n_per_delay, grid.n_steps
    h = grid.delta / substeps
    shift = n_delay * substeps  # delay in sub-steps
    n_sub = n_steps * substeps

    sub_times = grid.t0 + (np.arange(-shift, n_sub + 1)) * h
    seg_vals = model.initial.mean_at(sub_times[: shift + 1])

    a, b = model.a, model.b
    gamma_nodes = a * np.asarray(
        gamma_eval(model.gamma, sub_times[shift:], model.t0), dtype=float
    )
    gamma_mids = a * np.asarray(
        gamma_eval(model.gamma, sub_times[shift:-1] + 0.5 * h, model.t0), dtype=float
    )
    decay = math.exp(-a * h)
    decay_half = math.exp(-0.5 * a * h)

    # m[shift + i] is m at sub-node i; sub-step i reads the delayed sub-nodes
    # i - 1 .. i + 1, held in m[i - 1 .. i + 1]
    m = np.empty(shift + n_sub + 1)
    m[: shift + 1] = seg_vals
    m_j = float(m[shift])
    for lo in range(0, n_sub, shift):
        hi = min(lo + shift, n_sub)
        f_left = gamma_nodes[lo:hi] + b * m[lo:hi]
        f_right = gamma_nodes[lo + 1 : hi + 1] + b * m[lo + 1 : hi + 1]
        if b != 0.0:
            m_mid = np.empty(hi - lo)
            first = max(lo, 1)
            m_mid[first - lo :] = (
                -m[first - 1 : hi - 1] + 6.0 * m[first:hi] + 3.0 * m[first + 1 : hi + 1]
            ) / 8.0
            if lo == 0:
                m_mid[0] = (3.0 * m[0] + 6.0 * m[1] - m[2]) / 8.0
            f_mid = gamma_mids[lo:hi] + b * m_mid
        else:
            f_mid = gamma_mids[lo:hi]
        integral = (h / 6.0) * (decay * f_left + 4.0 * decay_half * f_mid + f_right)
        run = []
        for step in integral.tolist():
            m_j = decay * m_j + step
            run.append(m_j)
        m[shift + lo + 1 : shift + hi + 1] = run

    return MeanCurve(
        times=grid.t0 + np.arange(0, n_steps + 1) * grid.delta,
        means=m[shift::substeps].copy(),
    )

