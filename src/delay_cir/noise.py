"""Coupled Gaussian increments shared across refinement levels.

Normals come from the inverse normal CDF applied to a counter-based
(Philox) uniform stream keyed by ``(seed, path_index, stream tag)``; the
position in the stream is the step counter.  Any increment is therefore
addressable without generating its predecessors, regeneration is bit-exact
within one interpreter session and across sessions on the same platform,
and distinct paths never share state.

Coarse increments are exact left-to-right block sums of fine increments, so
a path simulated at a coarse level sees precisely the Brownian increments of
its fine-level twin aggregated over blocks — the coupling used by the
strong-convergence experiments.

Initial-segment randomness lives on a separate stream tag so that drawing a
segment never disturbs the Brownian increments (and vice versa), no matter
how many of either are drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .model import InitialSegmentSpec, OutOfDomain, TimeGrid

Array = np.ndarray

__all__ = [
    "CoupledNoise",
    "SegmentDraw",
    "generate",
    "coarsen",
    "block_sum",
    "sample_segment",
    "NotNested",
    "NonPositiveSample",
]

_MASK64 = (1 << 64) - 1
_TAG_NOISE = 0
_TAG_SEGMENT = 1


class NotNested(ValueError):
    """Coarsening factor does not nest inside the fine resolution."""


class NonPositiveSample(ValueError):
    """A drawn or tabulated initial-segment value is not strictly positive."""


# Bytes per transpose block of the raw draws: a block of per-path rows that
# stays in cache while it is written into the time-major output.
_BLOCK_BYTES = 1 << 20


def _paths(path_index: int | range) -> range:
    if isinstance(path_index, range):
        return path_index
    return range(path_index, path_index + 1)


def _standard_normals(seed: int, paths: range, tag: int, n: int) -> Array:
    """(n, len(paths)) standard normals, column j from stream (seed, paths[j], tag)."""
    if seed < 0 or min(paths, default=0) < 0:
        raise ValueError("seed and path_index must be nonnegative integers")
    # One bit generator, local to the call, re-keyed per path with the
    # counter at zero (as its fresh state has it); its own seed is never
    # drawn from.  random_raw >> 11 is what Generator.integers(0, 2**53)
    # returns for this power-of-two range.
    bitgen = np.random.Philox(0)
    state = bitgen.state
    u = np.empty((n, len(paths)))
    block = max(1, _BLOCK_BYTES // (8 * max(n, 1)))
    for lo in range(0, len(paths), block):
        rows = np.empty((len(paths[lo : lo + block]), n), dtype=np.uint64)
        for j, path in enumerate(paths[lo : lo + block]):
            key = [seed & _MASK64, ((path << 1) | tag) & _MASK64]
            state["state"]["key"] = np.array(key, dtype=np.uint64)
            bitgen.state = state
            rows[j] = bitgen.random_raw(n)
        rows >>= np.uint64(11)
        u[:, lo : lo + len(rows)] = rows.T
    # (draws + 0.5) * 2^-53 lies strictly inside (0, 1): ndtri never sees 0 or 1.
    u += 0.5
    u *= 2.0**-53
    return ndtri(u, out=u)


@dataclass(frozen=True)
class CoupledNoise:
    """Brownian increments of one path, or of a range of paths, at one resolution.

    ``n_fine`` is the number of steps per delay at this resolution and
    ``delta_fine`` the step; ``increments`` holds W(t_{k+1}) - W(t_k) for
    k = 0 .. K-1, shape (K,) for one path and (K, paths) for a range.
    """

    seed: int
    path_index: int | range
    n_fine: int
    delta_fine: float
    increments: Array


def generate(grid: TimeGrid, seed: int, path_index: int | range) -> CoupledNoise:
    """Increments of path ``path_index`` (or of a range of paths) on ``grid``."""
    z = _standard_normals(seed, _paths(path_index), _TAG_NOISE, grid.n_steps)
    z *= math.sqrt(grid.delta)
    return CoupledNoise(
        seed=seed,
        path_index=path_index,
        n_fine=grid.n_per_delay,
        delta_fine=grid.delta,
        increments=z if isinstance(path_index, range) else z[:, 0],
    )


def block_sum(increments: Array, r: int) -> Array:
    """Left-to-right sums of consecutive blocks of ``r`` along the first (time) axis."""
    n = increments.shape[0]
    if r < 1 or n % r:
        raise NotNested(f"block size {r} does not divide {n} increments")
    out = np.array(increments[0::r], dtype=float)
    for j in range(1, r):
        out += increments[j::r]
    return out

def coarsen(noise: CoupledNoise, r: int) -> CoupledNoise:
    """The same Brownian path at resolution ``n_fine / r``.

    Raises :class:`NotNested` unless ``r`` divides both the per-delay step
    count and the total number of increments.
    """
    if r < 1 or noise.n_fine % r:
        raise NotNested(f"factor {r} does not divide n_fine={noise.n_fine}")
    return CoupledNoise(
        seed=noise.seed,
        path_index=noise.path_index,
        n_fine=noise.n_fine // r,
        delta_fine=noise.delta_fine * r,
        increments=block_sum(noise.increments, r),
    )


@dataclass(frozen=True)
class SegmentDraw:
    """Initial segment evaluated on the grid nodes k = -N .. 0.

    ``values`` has shape (N+1,) for one path and (N+1, paths) for a range of
    paths, where ``level`` holds one lognormal level per path.  For a single
    path of a deterministic kind (and of the lognormal kind, whose randomness
    is a single time-constant level) the continuous-time segment is
    recoverable via :meth:`value_at`.
    """

    values: Array
    spec: InitialSegmentSpec
    level: float | Array | None = None

    def value_at(self, t: float | Array):
        """X0(t) for t in the segment's time range."""
        if self.spec.kind != "lognormal":
            return self.spec.mean_at(t)
        out = np.full_like(np.asarray(t, dtype=float), self.level)
        return out if np.ndim(t) else float(out)


def sample_segment(
    spec: InitialSegmentSpec, grid: TimeGrid, seed: int, path_index: int | range
) -> SegmentDraw:
    """Draw (or tabulate) the initial segment of one path, or of a range of paths.

    Uses the segment stream tag, so the draw is identical whatever grid
    resolution is used for the Brownian increments of the same path.  For a
    range the values of a deterministic kind are a read-only view shared by
    every path.
    """
    times = grid.t0 + np.arange(-grid.n_per_delay, 1) * grid.delta
    paths = _paths(path_index)
    level = None
    if spec.kind == "lognormal":
        median, log_sd = spec.params
        z = _standard_normals(seed, paths, _TAG_SEGMENT, 1)[0]
        level = np.array([median * math.exp(log_sd * zj) for zj in z.tolist()])
        values = level[None, :]
    else:
        if spec.kind == "table":
            first, last = spec.points[0][0], spec.points[-1][0]
            tol = 1e-9 * max(1.0, abs(grid.t0), grid.tau)
            if first > times[0] + tol or last < times[-1] - tol:
                raise OutOfDomain(
                    f"segment table covers [{first}, {last}] but the grid needs "
                    f"[{times[0]}, {times[-1]}]"
                )
        values = np.asarray(spec.mean_at(times))[:, None]
    bad = np.flatnonzero(np.any(values <= 0.0, axis=0))
    if bad.size:
        raise NonPositiveSample(
            f"initial segment of path {paths[bad[0]]} is not strictly positive"
        )
    values = np.broadcast_to(values, (times.size, len(paths)))
    if isinstance(path_index, range):
        return SegmentDraw(values=values, spec=spec, level=level)
    level = None if level is None else float(level[0])
    return SegmentDraw(values=values[:, 0].copy(), spec=spec, level=level)
