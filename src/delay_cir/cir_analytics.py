"""Closed-form results for the classical (no-delay) CIR process.

For dX = a (gamma - X) dt + sigma sqrt(X) dW with X(t0) = x0 > 0 and
Feller ratio g = 2 a gamma / sigma^2 the module provides

* the Laplace transform E[exp(-u X(t))] (exact closed form),
* negative moments E[X(t)^{-p}]: finite for p < g (the noncentral chi^2
  closed form with a confluent hypergeometric function), infinite for p >= g,
* the constants L_p with E[X(t)^{-p}] <= L_p e^{a p (t - t0)} / x0^p,
* the grid recursion for the mean of the *delayed* equation (integrating
  factor plus composite Simpson sub-steps), against a closed form for b = 0.

These are the oracles the Monte Carlo experiments test the scheme against;
they depend on the model description only, not on the scheme or the noise.
``scipy.special`` is imported by a negative moment whose large-z series does
not converge, when it first runs; no other oracle needs SciPy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, NonPositiveParameter, TimeGrid, check_grid, gamma_eval

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
    "OrderOutOfRange",
    "StrongFellerViolated",
]


class NonPositiveElapsed(ValueError):
    """The evaluation time does not lie strictly after t0; ``argument`` names it."""

    argument = "t"


class ElapsedOutOfRange(ValueError):
    """The elapsed time t - t0 is too short for an oracle to be evaluated in
    floating point; ``argument`` names it."""

    argument = "t"


class FellerRatioTooSmall(ValueError):
    """2 a gamma / sigma^2 <= 1: the origin is attainable and the result undefined."""


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

# |x| up to this keeps e^x in [m, 1 / m], m the least normal float
_LOG_NORMAL = -math.log(sys.float_info.min)
_EPS = 2.0**-53  # the large-z series' relative tolerance


def _asymptotic_sum(q: float, g: float, w: float) -> tuple[float, bool]:
    """sum_n (q)_n (q - g + 1)_n / (n! w^n), summed while its terms shrink,
    until a term is below 2^-53 of the sum, and whether that term came
    before the terms stopped shrinking."""
    term = total = 1.0
    n = 0
    while abs(term) >= _EPS * abs(total):
        nxt = term * (q + n) * (q - g + 1.0 + n) / ((n + 1) * w)
        if abs(nxt) >= abs(term):
            return total, False
        term = nxt
        total += term
        n += 1
    return total, True


def _large_z_series(p: float, g: float, z: float) -> float | None:
    """z^p Gamma(g - p) / Gamma(g) 1F1(p; g; -z) by its large-z series, or None.

    For z > 0 the function is the sum S(p, z) plus a part exponentially
    small in z, e^{-z} z^{2p-g} Gamma(g - p) / Gamma(p) S(g - p, -z) up to
    its phase, with S(q, w) the sum of :func:`_asymptotic_sum` (q, g, w)
    (DLMF 13.7.2).  S(p, z) serves where it converges and that part is
    below 2^-53 of it.  The part is estimated by S(g - p, -z) summed to its
    least term, where that sum's terms shrink at first: at an integer
    g - p - 1, S(p, z) ends after g - p terms at any z, so its convergence
    alone does not show that z is large.
    """
    algebraic, converged = _asymptotic_sum(p, g, z)
    if not converged or abs((g - p) * (1.0 - p)) >= z:
        return None
    partner, _ = _asymptotic_sum(g - p, g, -z)
    log_part = (
        -z + (2.0 * p - g) * math.log(z) + math.lgamma(g - p) - math.lgamma(p)
        + math.log(abs(partner))
    )
    return algebraic if log_part < math.log(_EPS * algebraic) else None


@dataclass(frozen=True)
class NegMomentResult:
    """E[X(t)^{-p}]: ``value`` is ``math.inf`` when the moment diverges."""

    value: float
    bound: float | None


def neg_moment(params: CIRParams, p: float, t: float) -> NegMomentResult:
    """E[X(t)^{-p}] for p > 0 and t > t0, in closed form.

    Divergence (p >= Feller ratio g) is reported with ``value = inf`` rather
    than an error.  The finite branch requires g > 1.  X(t) is L times a
    noncentral chi^2 variable of 2 g degrees of freedom and noncentrality
    zeta (Cox, Ingersoll & Ross 1985), so with z = zeta / 2 and s = t - t0

        E[X(t)^{-p}] = (2 L)^{-p} Gamma(g - p) / Gamma(g) 1F1(p; g; -z).

    Where the large-z series of 1F1 converges to 2^-53 (:func:`_large_z_series`)
    the moment is x0^{-p} e^{a p s} times that series; elsewhere, and at
    z = 0, SciPy's ``hyp1f1`` and ``poch`` evaluate the formula, with 1F1
    in Kummer's form e^{-z} 1F1(g - p; g; z) where that is finite.  As s grows
    the moment tends to the stationary Gamma moment
    (sigma^2 / 2 a)^{-p} Gamma(g - p) / Gamma(g).  ``bound`` carries
    L_p e^{a p s} / x0^p where the constant L_p applies and the bound lies
    in [m, 1 / m], m the least normal float; a moment outside that range
    raises :class:`OrderOutOfRange`.
    """
    if p <= 0.0:
        raise OrderOutOfRange(f"need p > 0, got {p}")
    s = t - params.t0
    if s <= 0.0:
        raise NonPositiveElapsed(f"need t > t0, got elapsed {s}")
    g = params.feller_ratio
    if p >= g:
        return NegMomentResult(value=math.inf, bound=None)
    if g <= 1.0:
        raise FellerRatioTooSmall(f"finite negative moments need 2 a gamma / sigma^2 > 1, got {g}")

    _gamma_fn(p)  # the order's window, checked before SciPy loads
    big_l, zeta = _transform_coeffs(params, s)
    # an overflowed zeta is the largest float: past the first, the terms vanish all the same
    z = min(0.5 * zeta, sys.float_info.max)
    log_growth = p * (params.a * s - math.log(params.x0))  # log of e^{a p s} / x0^p
    series = _large_z_series(p, g, z) if z > 0.0 else None
    if series is not None:
        log_value = log_growth + math.log(series)
    else:
        from scipy.special import hyp1f1, poch

        # Kummer's transformation 1F1(p; g; -z) = e^{-z} 1F1(g - p; g; z) sums
        # terms of one sign where 1F1(p; g; -z) sums alternating ones; the
        # latter serves where the former overflows
        kummer = hyp1f1(g - p, g, z)
        factor, log_scale = (kummer, -z) if math.isfinite(kummer) else (hyp1f1(p, g, -z), 0.0)
        factor *= poch(g, -p)
        log_scale -= p * math.log(2.0 * big_l)
        log_value = log_scale + math.log(factor) if factor > 0.0 else math.nan
    if not abs(log_value) <= _LOG_NORMAL:
        raise OrderOutOfRange(
            f"E[X(t)^(-p)] leaves the float range at p = {p}, x0 = {params.x0}, "
            f"elapsed time {s} (its log is {log_value})"
        )
    try:
        log_bound = math.log(lp_constant(g, p)) + log_growth
    except OrderOutOfRange:
        log_bound = math.inf
    bound = math.exp(log_bound) if abs(log_bound) <= _LOG_NORMAL else None
    return NegMomentResult(value=math.exp(log_value), bound=bound)


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
    a sub-step by sub-step march.  ``grid`` must be the model's
    (:func:`~delay_cir.model.check_grid`).
    """
    check_grid(model, grid)
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

