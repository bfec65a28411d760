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

Each stream has its own kernel.  The increments of :func:`generate`
re-key one Philox bit generator per path, so their cost per path is the
state setter plus one fill: the words come as one row of uniforms filled by
``Generator.random`` into a cache-sized block of such rows.  A block is
finished where it lies and then copied once, transposed, into the
time-major output.  The fill holds the interpreter lock; the finishing does
not, so a process with the helper threads of a :class:`DrawHelpers`, which
it keeps for all its draws, fills a whole span and queues each block to
them as it goes, and fills the next span so while it marches the one it
has.  A lognormal segment needs one
word per path, word 0 of its stream.  Philox is counter-based (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011): each block
of four words is a pure function of key and counter.  So
:func:`sample_segment` computes the word of every path of its chunk at once
with :func:`_philox4x64`, in uint64 array arithmetic that gives numpy's
bits, and keys no bit generator.  Both kernels turn words into normals by
:func:`_finish`.

SciPy's inverse normal CDF is imported on the first draw, not with the
module, so a process that only parses or validates a config never loads it.
``ndtri`` stays a module-level name that :func:`_finish` looks up at call
time, so it can be replaced there (for instance by a timing wrapper)
without touching the draw code; a draw on several CPUs calls it from each
of its threads.
"""

from __future__ import annotations

import math

import numpy as np

from .model import InitialSegmentSpec, TimeGrid, check_segment_window, rejected

Array = np.ndarray

__all__ = [
    "generate",
    "DrawHelpers",
    "block_sum",
    "sample_segment",
    "check_seed",
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


# Bytes per transpose block of the drawn uniforms: a block of per-path rows
# that stays in cache while it is finished and written into the time-major
# output.
_BLOCK_BYTES = 1 << 20


# The largest double below 1, 1 - 2^-53, to which the uniform of the
# all-ones word is clamped (see _finish).
_BELOW_ONE = 1.0 - 2.0**-53


# Philox4x64-10 as numpy's Philox computes it: the multipliers of a round
# and the constants added to the two key words between rounds.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(m: int, x: Array) -> tuple[Array, Array]:
    """(high, low) 64-bit words of the 128-bit products m x of a constant m
    and the uint64 array x.

    The low word is numpy's wrapping product.  The high word is assembled
    from the four 32 x 32-bit products, none of whose partial sums exceeds
    2^64 - 1.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    mid = m_lo * x_hi
    mid += (m_lo * x_lo) >> _SHIFT32
    carry = mid & _LOW32
    carry += m_hi * x_lo
    hi = m_hi * x_hi
    hi += mid >> _SHIFT32
    hi += carry >> _SHIFT32
    return hi, x * np.uint64(m)


def _philox4x64(key0: int, key1: Array, counter: int) -> tuple[Array, ...]:
    """The four words of Philox4x64-10 at counter (counter, 0, 0, 0) under the
    keys (key0, key1[j]), for every entry of the uint64 array ``key1`` at once.

    numpy's Philox steps its counter before it makes each block of four
    words, so this is the block that a state with counter ``counter - 1``
    returns next.
    """
    c0 = np.full(key1.shape, counter, dtype=np.uint64)
    c1, c2, c3 = (np.zeros(key1.shape, dtype=np.uint64) for _ in range(3))
    key1 = key1.copy()
    for round_ in range(10):
        if round_:
            key0 = (key0 + _PHILOX_W[0]) & _MASK64
            key1 += np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        hi1 ^= c1
        hi1 ^= np.uint64(key0)
        hi0 ^= c3
        hi0 ^= key1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    return c0, c1, c2, c3


def check_seed(seed: int) -> None:
    """Raise unless ``seed``, the first word of every stream's Philox key, is
    nonnegative; the error's ``argument`` is ``"seed"``."""
    if seed < 0:
        raise rejected(ValueError, "seed", f"seed must be nonnegative, got {seed}")


def _check_range(paths: range) -> None:
    if not isinstance(paths, range):
        raise TypeError(f"path_index must be a range of paths, not {type(paths).__name__}")
    if paths and min(paths[0], paths[-1]) < 0:
        raise ValueError("path_index must hold nonnegative paths")


def ndtri(u: Array, out: Array | None = None) -> Array:
    """``scipy.special.ndtri``, imported on the first call."""
    from scipy.special import ndtri as _ndtri

    return _ndtri(u, out=out)


def _finish(u: Array, scale: float) -> Array:
    """Uniforms ``u`` to ``scale`` times their standard normals, in place.

    Word w of a stream becomes the uniform (k + 1/2) 2^-53 with k = w >> 11.
    That is never 0; it is 1 only for k = 2^53 - 1, where k + 1/2 rounds up
    to 2^53 (one word in 2^53), and ndtri(1) = inf.  Every other uniform is
    at most 1 - 2^-52, so clamping to the largest double below 1 changes
    that one value only.
    """
    np.minimum(u, _BELOW_ONE, out=u)
    ndtri(u, out=u)
    u *= scale
    return u


def _finish_rows(rows: Array, scale: float) -> Array:
    """:func:`_finish` of a block of filled rows, after adding 2^-54, in place."""
    rows += 2.0**-54
    return _finish(rows, scale)


def _complete(jobs) -> None:
    """Finish on this thread, from the back of ``jobs``, every job that no
    helper has started, then wait for the others.  ``jobs`` holds ``(future,
    job)``, oldest first.  A helper's error is raised here, with its type,
    once no job of ``jobs`` runs."""
    try:
        for future, job in reversed(jobs):
            if future.cancel():
                _finish_rows(*job)
        for future, _ in jobs:
            if not future.cancelled():
                future.result()
    except BaseException:
        _drop(jobs)
        raise


def _drop(jobs) -> None:
    """Cancel the unstarted jobs of ``jobs``; wait for the rest, raising no error."""
    for future, _ in jobs:
        if not future.cancel():
            future.exception()


def _row_filler(seed: int, tag: int, start: int):
    """``fill(paths, rows)``: row j of ``rows`` gets the words of stream (seed,
    paths[j], tag) from word start - start % 4 on, as the uniforms k 2^-53,
    k = w >> 11, of ``Generator.random``."""
    # Philox makes four words per counter value and steps the counter before
    # each four, so counter start // 4 begins at word start - start % 4 (a
    # fresh state has counter zero).  Path j's key is (seed, (j << 1) | tag).
    # One bit generator, local to the filler, is re-keyed per path; its own
    # seed is never drawn from.  The setter copies the plain ints of one
    # reused state dict, so re-keying builds no array.
    bitgen = np.random.Philox(0)
    key = [seed & _MASK64, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [start // 4, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    uniform = np.random.Generator(bitgen).random

    def fill(paths: range, rows: Array) -> None:
        for j, path in enumerate(paths):
            key[1] = ((path << 1) | tag) & _MASK64
            bitgen.state = state
            uniform(out=rows[j])

    return fill


def _block_rows(width: int) -> int:
    """Rows of ``width`` words in a block of ``_BLOCK_BYTES``, at least one."""
    return max(1, _BLOCK_BYTES // (8 * max(width, 1)))


def _standard_normals(
    seed: int, paths: range, tag: int, n: int, start: int = 0, scale: float = 1.0
) -> Array:
    """(n, len(paths)) standard normals times ``scale``: column j holds draws
    start .. start+n-1 of stream (seed, paths[j], tag).

    ``Generator.random`` fills a row with k 2^-53 exactly, and 2^-54 is added
    to it; fl(k 2^-53 + 2^-54) = 2^-53 fl(k + 1/2), because scaling by a
    power of two commutes with rounding in this range, so every uniform is
    the one :func:`_finish` names.  Each value passes through the same
    operations in the same order whatever the layout, so finishing a block
    of rows before it is transposed into the output gives the bits of
    finishing the whole output, and so does finishing the blocks on other
    threads (:class:`DrawHelpers`).  Here this thread fills, finishes and
    copies one block of ``_block_rows`` rows at a time, which it holds
    beside the output.
    """
    skip = start % 4
    fill = _row_filler(seed, tag, start)
    block = _block_rows(n + skip)
    out = np.empty((n, len(paths)))
    rows = np.empty((min(block, len(paths)), n + skip))
    for lo in range(0, len(paths), block):
        part = paths[lo : lo + block]
        fill(part, rows)
        out[:, lo : lo + len(part)] = _finish_rows(rows[: len(part), skip:], scale).T
    return out


class DrawHelpers:
    """The helper threads on which a process finishes its draws, and the one
    span filled ahead.

    A ``with`` block makes ``cpus - 1`` helper threads, importing
    ``concurrent.futures`` only then, and shuts them down at its end.  Every
    :func:`generate` call given it as ``helpers`` draws on them.  A span is
    filled into path-major rows, which holds the interpreter lock, and each
    block of ``_block_rows`` rows is queued to the helpers as soon as it is
    filled, to be finished (2^-54, clamp, ``ndtri``, scale) without the lock
    while the caller goes on.  The call that asks for the span completes
    the blocks (:func:`_complete`) and copies the rows, transposed, into its
    output: the bits of :func:`_standard_normals`.  ``then`` names the span
    that the caller will draw next, ``(paths, start, stop)`` of the same
    grid and seed, or None.  Once a call has its own span, filled then or
    earlier, it fills ``then``, whose blocks the helpers finish while the
    caller marches; the next call takes that span if it asks for it and
    drops it otherwise.  Beside the caller's draws it holds the rows of one
    span, which every fill that fits in them reuses.
    """

    def __init__(self, cpus: int):
        from concurrent.futures import ThreadPoolExecutor

        self.cpus = cpus
        self.pool = ThreadPoolExecutor(cpus - 1)
        self.then = None
        self._filled = None  # (request, rows, [(future, job)]) of the span filled
        self._rows = None  # the rows that each fill reuses where they are large enough

    def __enter__(self) -> DrawHelpers:
        return self

    def __exit__(self, *exc) -> None:
        self._take(None)
        self.pool.shutdown()

    def draw(self, seed: int, paths: range, start: int, n: int, scale: float) -> Array:
        """The normals of the noise stream that :func:`_standard_normals`
        draws, taken from the span filled ahead where it is this one and
        filled now otherwise; then fill ``then``."""
        request = (seed, paths, start, n, scale)
        out = self._take(request)
        if out is None:
            self._fill(request)
            out = self._take(request)
        if self.then is not None:
            then, k0, k1 = self.then
            self._fill((seed, then, k0, k1 - k0, scale))
        return out

    def _fill(self, request: tuple) -> None:
        """Fill the rows of ``request`` and queue the finishing of each block."""
        seed, paths, start, n, scale = request
        skip = start % 4
        if self._rows is None or len(self._rows) < len(paths) or self._rows.shape[1] < n + skip:
            self._rows = None  # freed before the larger rows are made
            self._rows = np.empty((len(paths), n + skip))
        rows = self._rows[: len(paths), : n + skip]
        fill = _row_filler(seed, _TAG_NOISE, start)
        block = _block_rows(n + skip)
        jobs = []
        for lo in range(0, len(paths), block):
            fill(paths[lo : lo + block], rows[lo : lo + block])
            job = (rows[lo : lo + block, skip:], scale)
            jobs.append((self.pool.submit(_finish_rows, *job), job))
        self._filled = (request, rows, jobs)

    def _take(self, request: tuple | None) -> Array | None:
        """The output of the span filled if ``request`` is it, else None;
        either way nothing is left filled."""
        filled, self._filled = self._filled, None
        if filled is None:
            return None
        made, rows, jobs = filled
        if made != request:
            _drop(jobs)
            return None
        _complete(jobs)
        _, paths, start, n, _ = request
        skip = start % 4
        block = _block_rows(n + skip)
        out = np.empty((n, len(paths)))
        for lo in range(0, len(paths), block):
            out[:, lo : lo + block] = rows[lo : lo + block, skip:].T
        return out


def generate(
    grid: TimeGrid,
    seed: int,
    path_index: range,
    start: int = 0,
    stop: int | None = None,
    *,
    helpers: DrawHelpers | None = None,
) -> Array:
    """Brownian increments W(t_{k+1}) - W(t_k), k = start .. stop-1, on ``grid``,
    shape (stop - start, len(path_index)): standard normals times sqrt(delta).

    The default range is every step, k = 0 .. K-1; any step range equals the
    same rows of the whole draw, bit for bit.  Without ``helpers`` the draw
    runs on the calling thread.  With them it is taken from the span they
    filled ahead where that is this one, or filled now, its blocks finished
    on their threads with the same bits, and it then fills ``helpers.then``
    (:class:`DrawHelpers`).
    """
    _check_range(path_index)
    check_seed(seed)
    stop = grid.n_steps if stop is None else stop
    if not 0 <= start <= stop <= grid.n_steps:
        raise ValueError(f"step range [{start}, {stop}) is not inside [0, {grid.n_steps}]")
    scale = math.sqrt(grid.delta)
    if helpers is not None:
        return helpers.draw(seed, path_index, start, stop - start, scale)
    return _standard_normals(seed, path_index, _TAG_NOISE, stop - start, start, scale)


def block_sum(increments: Array, r: int, finer: Array | None = None) -> Array:
    """Left-to-right sums of consecutive blocks of ``r`` along the first (time) axis.

    ``finer`` may hold the block sums of the same increments over a ratio q
    that divides r (``block_sum(increments, q)``; the increments themselves,
    q = 1, without it).  The sum of a block of r starts from that of its
    first q increments, which is the same left-to-right prefix, and adds the
    other r - q: bit for bit the same sums for every q, in r - q additions.
    """
    n = increments.shape[0]
    if r < 1 or n % r:
        raise NotNested(f"block size {r} does not divide {n} increments")
    if finer is None:
        finer = increments
    blocks = finer.shape[0]
    q = n // blocks if blocks else 1
    if blocks * q != n or r % q:
        raise NotNested(f"{blocks} block sums of {n} increments do not nest in {r}")
    out = np.array(finer[0 :: r // q], dtype=float)
    for j in range(q, r):
        out += increments[j::r]
    return out


def sample_segment(
    spec: InitialSegmentSpec, grid: TimeGrid, seed: int, path_index: range
) -> Array:
    """X0 on the grid nodes k = -N .. 0 for a range of paths: a read-only
    (N+1, len(path_index)) view.

    A lognormal segment holds one level per path on every node.  The draw
    uses the segment stream tag, so it is identical whatever grid resolution
    is used for the Brownian increments of the same path.  A deterministic
    kind is one column, shared by every path.
    """
    _check_range(path_index)
    times = grid.t0 + np.arange(-grid.n_per_delay, 1) * grid.delta
    if spec.kind == "lognormal":
        median, log_sd = spec.params
        check_seed(seed)
        # word 0 of every path's segment stream, for the chunk's paths at
        # once: the block at counter 1, under path j's key (seed, (j << 1) | tag)
        key1 = np.arange(path_index.start, path_index.stop, path_index.step, dtype=np.uint64)
        key1 <<= np.uint64(1)
        key1 |= np.uint64(_TAG_SEGMENT)
        words = _philox4x64(seed & _MASK64, key1, 1)[0]
        words >>= np.uint64(11)
        u = np.add(words, 0.5)
        u *= 2.0**-53
        # math.exp, not np.exp: NumPy's vectorised exp rounds differently
        # from the C library's on about 4.6 % of the levels (92 280 to
        # 92 920 of 2 000 000 at log_sd 0.2, 1 and 3, NumPy 2.4), which
        # would change the products of every run with a lognormal start
        levels = np.fromiter(map(math.exp, _finish(u, log_sd).tolist()), float, len(path_index))
        values = (median * levels)[None, :]
    else:
        check_segment_window(spec, grid.t0, grid.tau)
        values = np.asarray(spec.mean_at(times))[:, None]
    bad = np.flatnonzero(np.any(values <= 0.0, axis=0))
    if bad.size:
        raise NonPositiveSample(
            f"initial segment of path {path_index[bad[0]]} is not strictly positive"
        )
    return np.broadcast_to(values, (times.size, len(path_index)))
