from __future__ import annotations

import math
import sys
import threading
import time
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from conftest import level_normals
from scipy.special import ndtri

from delay_cir.model import (
    GammaSpec,
    InitialSegmentSpec,
    ModelSpec,
    OutOfDomain,
    build_grid,
)
from delay_cir import model, noise
from delay_cir.noise import (
    NotNested,
    _philox4x64,
    _standard_normals,
    block_sum,
    generate,
    sample_segment,
)


def _drawn(grid, seed, paths, start=0, stop=None, cpus=1):
    """``generate`` on the helpers of ``cpus`` threads, with nothing filled
    ahead, or on this one alone."""
    with noise.DrawHelpers(cpus) if cpus > 1 else nullcontext() as helpers:
        return generate(grid, seed, paths, start, stop, helpers=helpers)


def _grid(n_per_delay: int = 64, tau: float = 0.5, horizon: float = 1.5):
    spec = ModelSpec(
        a=1.0,
        b=0.2,
        sigma=0.25,
        tau=tau,
        t0=0.0,
        horizon=horizon,
        gamma=GammaSpec.constant(1.0),
        initial=InitialSegmentSpec.constant(1.0),
    )
    return build_grid(spec, n_per_delay)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_is_deterministic():
    grid = _grid()
    first = generate(grid, seed=123, path_index=range(5, 6))
    second = generate(grid, seed=123, path_index=range(5, 6))
    assert np.array_equal(first, second)
    assert first.shape == (grid.n_steps, 1)
    assert generate(grid, seed=123, path_index=range(5, 7)).shape == (grid.n_steps, 2)


def test_generate_distinct_paths_uncorrelated():
    grid = _grid(n_per_delay=64, tau=0.5, horizon=0.5 * 157)  # ~1e4 increments
    a, b = generate(grid, seed=1, path_index=range(2)).T
    n = len(a)
    assert n >= 10_000
    corr = float(np.corrcoef(a[:10_000], b[:10_000])[0, 1])
    assert abs(corr) < 4.0 / math.sqrt(10_000)


def test_generate_increment_variance():
    grid = _grid()
    draws = generate(grid, seed=9, path_index=range(600)).ravel()
    assert len(draws) >= 100_000
    assert np.var(draws) == pytest.approx(grid.delta, rel=0.05)
    # total displacement variance ~ horizon - t0 (statistical, generous band)
    totals = generate(grid, seed=9, path_index=range(2_000)).sum(axis=0)
    assert np.var(totals) == pytest.approx(1.5, rel=0.15)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize(
    "start, stop",
    [(0, 0), (0, 7), (1, 2), (3, 101), (5, 96), (6, 190), (64, 128), (130, 192), (191, 192)],
)
def test_generate_step_range_equals_the_slice_of_the_whole_draw(start, stop):
    # 192 steps; starts off a multiple of 4 skip into a Philox block of four
    grid = _grid()
    paths = range(3, 40)
    whole = generate(grid, seed=17, path_index=paths)
    part = generate(grid, seed=17, path_index=paths, start=start, stop=stop)
    assert part.shape == (stop - start, len(paths))
    assert np.array_equal(_bits(part), _bits(whole[start:stop]))
    # a range of one path draws what a wider range draws for it
    one = generate(grid, seed=17, path_index=range(11, 12), start=start, stop=stop)
    assert one.shape == (stop - start, 1)
    assert np.array_equal(_bits(one), _bits(whole[start:stop, 11 - 3 : 12 - 3]))


def test_generate_blocks_tile_the_whole_draw():
    # blocks of 56 steps: the last one is short and ends at K
    grid = _grid()
    whole = generate(grid, seed=4, path_index=range(50))
    blocks = [
        generate(grid, 4, range(50), k0, min(k0 + 56, grid.n_steps))
        for k0 in range(0, grid.n_steps, 56)
    ]
    assert blocks[-1].shape[0] == grid.n_steps % 56
    assert np.array_equal(_bits(np.concatenate(blocks)), _bits(whole))


@pytest.mark.parametrize("block_rows", [None, 2], ids=["partial-last-block", "two-row-blocks"])
@pytest.mark.parametrize("start, stop", [(0, 192), (5, 96)])
def test_generate_bits_do_not_depend_on_the_cpus(monkeypatch, block_rows, start, stop):
    # 1600 paths in blocks of 1 MiB: rows of 192 words come 682 to a block
    # (a partial last block of 236 rows), rows of 92 words 1424 (a last
    # block of 176).  Or 7 paths in blocks of two rows, the last of one.  A
    # start of 5 skips one word of a Philox block of four.
    paths = range(3, 1603) if block_rows is None else range(5, 12)
    if block_rows is not None:
        monkeypatch.setattr(noise, "_BLOCK_BYTES", 8 * (stop - start + start % 4) * block_rows)
    grid = _grid()
    one = generate(grid, 9, paths, start, stop)
    for cpus in (2, 3):
        assert np.array_equal(_bits(_drawn(grid, 9, paths, start, stop, cpus)), _bits(one))


def test_a_draw_finishes_on_its_cpus_and_leaves_no_thread(monkeypatch):
    threads = set()
    inner = noise.ndtri

    def recording(u, out=None):
        threads.add(threading.get_ident())
        return inner(u, out=out)

    monkeypatch.setattr(noise, "ndtri", recording)
    before = threading.active_count()
    generate(_grid(), 9, range(2000))
    assert threads == {threading.get_ident()}
    _drawn(_grid(), 9, range(2000), cpus=3)
    assert threading.get_ident() in threads and 2 <= len(threads) <= 3
    assert threading.active_count() == before


def test_a_draw_on_more_threads_than_cores_keeps_its_bits(monkeypatch):
    # seven helpers and this thread finish 200 blocks of 10 rows, switching
    # every microsecond; a block finished twice or not at all would change
    # bits
    monkeypatch.setattr(noise, "_BLOCK_BYTES", 8 * 192 * 10)
    grid, paths = _grid(), range(2000)
    drawn = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=lambda: drawn.append(_drawn(grid, 9, paths, cpus=8)))
        worker.start()
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    (got,) = drawn
    assert np.array_equal(_bits(got), _bits(generate(grid, 9, paths)))


@pytest.mark.parametrize("start, stop", [(5, 96), (130, 192)])
def test_a_pipelined_draw_keeps_its_bits_on_any_cpus(monkeypatch, start, stop):
    # the helpers finish each block while this thread fills the next: 305
    # paths in blocks of 30 rows, the last one partial (5 rows), or in
    # blocks of one row, on 1, 2, 3 and 8 CPUs
    grid, paths = _grid(), range(7, 312)
    whole = generate(grid, 9, paths, start, stop)  # one block
    for rows in (30, 1):
        monkeypatch.setattr(noise, "_BLOCK_BYTES", 8 * (stop - start + start % 4) * rows)
        for cpus in (1, 2, 3, 8):
            got = _drawn(grid, 9, paths, start, stop, cpus)
            assert np.array_equal(_bits(got), _bits(whole))


def test_the_caller_and_a_helper_both_finish_blocks(monkeypatch):
    finishers = []
    inner = noise._finish_rows

    def recording(*job):
        finishers.append(threading.get_ident())
        inner(*job)

    monkeypatch.setattr(noise, "_finish_rows", recording)
    # 200 blocks of 10 rows: the helper finishes blocks while later ones are
    # filled, and this thread those that no helper has started once all are
    monkeypatch.setattr(noise, "_BLOCK_BYTES", 8 * 192 * 10)
    _drawn(_grid(), 9, range(2000), cpus=2)
    assert len(finishers) == 200
    assert len(set(finishers)) == 2 and threading.get_ident() in finishers


def test_a_draw_holds_one_block_besides_its_output():
    # on this thread alone: rows of 1536 words (12 KiB), 85 to a block
    grid, paths = _grid(512), range(1000)
    generate(grid, 9, paths)  # imports and first calls before tracing
    tracemalloc.start()
    try:
        out = generate(grid, 9, paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= noise._BLOCK_BYTES + 4 * 8 * grid.n_steps, peak - out.nbytes


def test_a_helper_draw_holds_its_output_and_one_span_of_rows():
    # two spans of 768 steps for 1000 paths, the second filled ahead: the
    # rows of the first span (6 MiB) are filled again with the second's, and
    # the queue of jobs takes a few KiB more
    grid, paths = _grid(512), range(1000)
    generate(grid, 9, range(10))  # imports and first calls before tracing
    rows = 8 * len(paths) * 768
    tracemalloc.start()
    try:
        with noise.DrawHelpers(2) as helpers:
            helpers.then = (paths, 768, 1536)
            first = generate(grid, 9, paths, 0, 768, helpers=helpers)
            helpers.then = None
            second = generate(grid, 9, paths, 768, 1536, helpers=helpers)
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = peak - first.nbytes - second.nbytes
    assert rows <= held <= rows + 2**16, held


class _Broken(Exception):
    """The finishing error of test_a_helper_error_reaches_the_caller."""


def test_a_helper_error_reaches_the_caller(monkeypatch):
    # ndtri fails on the helper from its third call on, while many blocks are
    # still to be filled; the draw runs on a thread of its own, so that a
    # deadlock fails the test instead of hanging it
    lock = threading.Lock()
    count = {"ndtri": 0, "started": 0, "running": 0}
    drawer, outcome = [], []
    inner_ndtri, inner_rows = noise.ndtri, noise._finish_rows

    def failing(u, out=None):
        with lock:
            count["ndtri"] += 1
            fail = count["ndtri"] >= 3 and threading.get_ident() != drawer[0]
        if fail:
            raise _Broken("ndtri failed")
        return inner_ndtri(u, out=out)

    def counted(*job):
        with lock:
            count["started"] += 1
            count["running"] += 1
        try:
            inner_rows(*job)
        finally:
            with lock:
                count["running"] -= 1

    def draw():
        drawer.append(threading.get_ident())
        with noise.DrawHelpers(2) as helpers:
            try:
                generate(_grid(), 9, range(2000), helpers=helpers)
            except _Broken:
                with lock:
                    outcome.append(dict(count))

    monkeypatch.setattr(noise, "ndtri", failing)
    monkeypatch.setattr(noise, "_finish_rows", counted)
    monkeypatch.setattr(noise, "_BLOCK_BYTES", 8 * 192 * 30)  # 67 jobs
    before = threading.active_count()
    worker = threading.Thread(target=draw)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    (raised,) = outcome
    # no job runs once generate has returned, though the helpers still
    # live, none starts later, and none ran twice
    assert raised["running"] == 0
    assert raised["started"] == count["started"] == 67
    assert threading.active_count() == before


def test_a_span_filled_ahead_keeps_the_bits_of_a_plain_draw(monkeypatch):
    # on two CPUs the span filled ahead, rows of 92 words that start one word
    # into a Philox block of four, is finished in 11 blocks of up to 30 rows,
    # the next chunk's rows of 96 words in 4 blocks of up to 28, and the
    # last call fills nothing; only the first call fills its own span
    monkeypatch.setattr(noise, "_BLOCK_BYTES", 8 * 92 * 30)
    grid, paths, later = _grid(), range(7, 312), range(312, 400)
    asked = [
        (paths, 0, 5, (paths, 5, 96)),
        (paths, 5, 96, (later, 96, 192)),
        (later, 96, 192, None),
    ]
    filled = []
    inner = noise.DrawHelpers._fill

    def recording(self, request):
        _, chunk, start, n, _ = request
        filled.append((chunk, start, start + n))
        inner(self, request)

    monkeypatch.setattr(noise.DrawHelpers, "_fill", recording)
    before = threading.active_count()
    with noise.DrawHelpers(2) as helpers:
        for chunk, start, stop, then in asked:
            helpers.then = then
            got = generate(grid, 9, chunk, start, stop, helpers=helpers)
            assert np.array_equal(_bits(got), _bits(generate(grid, 9, chunk, start, stop)))
    assert filled == [(paths, 0, 5), (paths, 5, 96), (later, 96, 192)]
    assert threading.active_count() == before


def test_spans_filled_ahead_on_more_threads_than_cores_keep_their_bits(monkeypatch):
    # seven helpers finish blocks of 10 rows of each span filled ahead,
    # switching every microsecond and pausing before each ndtri, while the
    # caller fills the next span and takes and copies the last; a block
    # finished twice or not at all, or copied before it is finished, would
    # change bits
    monkeypatch.setattr(noise, "_BLOCK_BYTES", 8 * 48 * 10)
    grid, paths = _grid(), range(400)
    spans = [(k0, k0 + 48) for k0 in range(0, grid.n_steps, 48)]
    drawn, caller = [], []
    inner = noise.ndtri

    def slow_on_helpers(u, out=None):
        if threading.get_ident() not in caller:
            time.sleep(1e-3)
        return inner(u, out=out)

    monkeypatch.setattr(noise, "ndtri", slow_on_helpers)

    def walk():
        caller.append(threading.get_ident())
        with noise.DrawHelpers(8) as helpers:
            for (start, stop), then in zip(spans, spans[1:] + [None]):
                helpers.then = then and (paths, *then)
                drawn.append(generate(grid, 9, paths, start, stop, helpers=helpers))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=walk)
        worker.start()
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert len(drawn) == len(spans) > 2
    assert np.array_equal(_bits(np.concatenate(drawn)), _bits(generate(grid, 9, paths)))


@pytest.mark.parametrize(
    "seed, paths, start, stop",
    [(9, range(7, 312), 100, 192), (9, range(8, 312), 96, 192), (10, range(7, 312), 96, 192)],
    ids=["other-steps", "other-paths", "other-seed"],
)
def test_a_draw_of_another_span_drops_the_one_filled_ahead(seed, paths, start, stop):
    grid = _grid()
    with noise.DrawHelpers(2) as helpers:
        helpers.then = (range(7, 312), 96, 192)
        generate(grid, 9, range(7, 312), 0, 96, helpers=helpers)
        helpers.then = None
        got = generate(grid, seed, paths, start, stop, helpers=helpers)
    assert np.array_equal(_bits(got), _bits(generate(grid, seed, paths, start, stop)))


def test_a_helper_error_in_a_span_filled_ahead_reaches_the_caller(monkeypatch):
    # ndtri fails on the rows of the span filled ahead, 50 words wide, which
    # make one block; the caller asks for the span once a helper has failed
    failed = []
    inner = noise.ndtri

    def failing(u, out=None):
        if u.shape[-1] == 50:
            failed.append(threading.get_ident())
            raise _Broken("ndtri failed")
        return inner(u, out=out)

    monkeypatch.setattr(noise, "ndtri", failing)
    grid, paths = _grid(), range(300)
    before = threading.active_count()
    with noise.DrawHelpers(2) as helpers:
        helpers.then = (paths, 100, 150)
        generate(grid, 9, paths, 0, 100, helpers=helpers)
        for _ in range(10_000):
            if failed:
                break
            time.sleep(0.001)
        helpers.then = None
        with pytest.raises(_Broken, match="ndtri failed"):
            generate(grid, 9, paths, 100, 150, helpers=helpers)
    assert failed and threading.get_ident() not in failed
    assert threading.active_count() == before


def test_generate_rejects_ranges_off_the_grid():
    grid = _grid()
    for start, stop in ((-1, 4), (5, 4), (0, grid.n_steps + 1)):
        with pytest.raises(ValueError, match="step range"):
            generate(grid, 1, range(3), start, stop)


def test_generate_seed_changes_stream():
    grid = _grid()
    a = generate(grid, seed=1, path_index=range(1))
    b = generate(grid, seed=2, path_index=range(1))
    assert not np.array_equal(a, b)


_ALL_ONES = (1 << 64) - 1


class _AllOnesPhilox:
    """Stands in for ``np.random.Philox``: every word is 2^64 - 1."""

    def __init__(self, *args, **kwargs):
        self.state = None


class _AllOnesGenerator:
    """Stands in for ``np.random.Generator`` over :class:`_AllOnesPhilox`:
    ``random`` makes (w >> 11) 2^-53 of each word w, here 1 - 2^-53."""

    def __init__(self, bitgen):
        pass

    def random(self, out):
        out[...] = ((1 << 53) - 1) * 2.0**-53


def _all_ones_block(key0, key1, counter):
    """Stands in for ``_philox4x64``: every word is 2^64 - 1."""
    return tuple(np.full(key1.shape, _ALL_ONES, dtype=np.uint64) for _ in range(4))


@pytest.mark.parametrize(
    "draw",
    [
        lambda: level_normals(5, range(3))[None, :],
        lambda: _standard_normals(5, range(3), 0, 3),
        lambda: _standard_normals(5, range(3), 0, 1, 2),
    ],
    ids=["one-word", "rows", "rows-skipped"],
)
def test_the_all_ones_word_gives_a_finite_normal(monkeypatch, draw):
    # its uniform (k + 1/2) 2^-53, k = 2^53 - 1, rounds to 1, where ndtri is
    # inf; both kernels clamp it to the largest double below 1.  The level
    # kernel of sample_segment computes its one word per path by
    # _philox4x64, the fill takes rows from the bit generator.
    monkeypatch.setattr(noise, "_philox4x64", _all_ones_block)
    monkeypatch.setattr(np.random, "Philox", _AllOnesPhilox)
    monkeypatch.setattr(np.random, "Generator", _AllOnesGenerator)
    z = draw()
    assert z.shape[1] == 3
    assert np.all(z == ndtri(1.0 - 2.0**-53)) and np.all(np.isfinite(z))


def _numpy_block(seed: int, key1: int, counter: int) -> list[int]:
    """The four words numpy's Philox returns first from counter ``counter``."""
    bitgen = np.random.Philox(0)
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": [counter, 0, 0, 0], "key": [seed, key1]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bitgen.random_raw(4).tolist()


@pytest.mark.parametrize("seed", [0, 2024, _ALL_ONES])
@pytest.mark.parametrize("first_path", [0, (1 << 62) - 20], ids=["near-0", "near-2^62"])
@pytest.mark.parametrize("tag", [0, 1])
@pytest.mark.parametrize("counter", [0, 1, 1 << 40])
def test_the_philox_kernel_gives_numpys_words(seed, first_path, tag, counter):
    paths = range(first_path, first_path + 40)  # across 2^62 for the second
    key1 = np.array([(path << 1) | tag for path in paths], dtype=np.uint64)
    got = np.stack(_philox4x64(seed, key1, counter + 1), axis=1)
    want = [_numpy_block(seed, (path << 1) | tag, counter) for path in paths]
    assert got.tolist() == want


@pytest.mark.parametrize("start", [0, 4, 8 << 40])
def test_one_word_draws_equal_the_first_row_of_longer_draws(start):
    # the fill of one word per path from a draw index divisible by 4
    paths = range((1 << 62) - 5, (1 << 62) + 5)
    for tag in (0, 1):
        one = _standard_normals(7, paths, tag, 1, start)
        rows = _standard_normals(7, paths, tag, 3, start)
        assert np.array_equal(_bits(one[0]), _bits(rows[0]))


def test_one_step_increments_take_the_fill(monkeypatch):
    # a one-step span at a step index divisible by 4 keys a bit generator
    # per path, as every span of increments does; only sample_segment
    # computes words by the array kernel
    def no_kernel(*args):
        raise AssertionError("the increments took the level kernel")

    grid = _grid(8)
    whole = generate(grid, 5, range(40))
    monkeypatch.setattr(noise, "_philox4x64", no_kernel)
    for k in (0, 4, 8):
        assert generate(grid, 5, range(40), k, k + 1).tobytes() == whole[k : k + 1].tobytes()


def test_a_lognormal_chunk_keys_no_bit_generator(monkeypatch):
    def no_bit_generator(*args, **kwargs):
        raise AssertionError("a bit generator was keyed")

    paths = range(2048)
    # the levels of the first row of a two-word draw, which keys a bit
    # generator per path on the segment stream (tag 1)
    z = _standard_normals(3, paths, 1, 2)[0]
    want = [math.exp(0.25 * zj) for zj in z.tolist()]
    monkeypatch.setattr(np.random, "Philox", no_bit_generator)
    got = sample_segment(InitialSegmentSpec.lognormal(1.0, 0.25), _grid(8), 3, paths)
    assert got.shape == (9, 2048) and np.all(got == got[0])
    assert got[0].tolist() == want


# ---------------------------------------------------------------------------
# block_sum: the only coarsening of the increments
# ---------------------------------------------------------------------------


def test_coarsen_identity():
    grid = _grid(n_per_delay=8)
    inc = generate(grid, seed=3, path_index=range(1))
    assert np.array_equal(block_sum(inc, 1), inc)


def test_block_sum_pairwise_example():
    fine = np.array([0.1, -0.2, 0.3, 0.4])
    out = block_sum(fine, 2)
    assert np.array_equal(out, [0.1 + -0.2, 0.3 + 0.4])
    assert out == pytest.approx([-0.1, 0.7])


def test_block_sum_total_preserved_left_to_right():
    rng = np.random.default_rng(17)
    x = rng.normal(size=960)
    for r in (2, 3, 4, 5, 6, 8, 10):

        def ltr(v):
            total = 0.0
            for item in v:
                total += item
            return total

        coarse = block_sum(x, r)
        # left-to-right grand totals agree exactly when both levels sum in
        # the same order
        fine_total = ltr([ltr(x[j * r : (j + 1) * r]) for j in range(len(x) // r)])
        assert ltr(coarse) == fine_total


def test_coarsen_rejects_non_divisor():
    grid = _grid(n_per_delay=8)  # 24 increments
    inc = generate(grid, seed=3, path_index=range(1))
    for r in (0, 5, 7):
        with pytest.raises(NotNested):
            block_sum(inc, r)


def test_coarsen_two_stage_nesting():
    grid = _grid(n_per_delay=24)
    inc = generate(grid, seed=5, path_index=range(2, 3))
    for r1, r2 in ((2, 2), (2, 3), (3, 4), (2, 6)):
        direct = block_sum(inc, r1 * r2)
        staged = block_sum(block_sum(inc, r1), r2)
        assert np.max(np.abs(direct - staged)) <= 1e-12


def test_block_sums_continued_from_finer_sums_keep_every_bit():
    # the sums over q that divide r are the left-to-right prefixes of the
    # sums over r, on one path and on many
    grid = _grid(n_per_delay=48)
    whole = generate(grid, seed=6, path_index=range(5))
    for inc in (whole[:, 0], whole):
        for q, r in ((1, 4), (2, 8), (3, 12), (4, 48), (6, 6), (8, 16), (16, 48)):
            got = block_sum(inc, r, block_sum(inc, q))
            assert got.tobytes() == block_sum(inc, r).tobytes()


def test_block_sums_reject_finer_sums_that_do_not_nest():
    grid = _grid(n_per_delay=12)  # 36 increments
    inc = generate(grid, seed=3, path_index=range(2))
    with pytest.raises(NotNested, match="do not nest"):
        block_sum(inc, 6, block_sum(inc, 4))  # 4 does not divide 6
    with pytest.raises(NotNested, match="do not nest"):
        block_sum(inc, 6, block_sum(inc[:30], 2))  # sums of 30 increments, not 36
    with pytest.raises(NotNested, match="does not divide"):
        block_sum(inc, 8, block_sum(inc, 4))


def test_coarsen_tracks_grid_resolution():
    # block sums of r fine steps are the increments of the grid with N / r
    grid = _grid(n_per_delay=16)
    coarse_grid = _grid(n_per_delay=4)
    inc = generate(grid, seed=5, path_index=range(3))
    coarse = block_sum(inc, 4)
    assert coarse.shape == (coarse_grid.n_steps, 3)
    assert np.array_equal(coarse[:, 1], block_sum(inc[:, 1], 4))


# ---------------------------------------------------------------------------
# sample_segment
# ---------------------------------------------------------------------------


def test_segment_constant():
    grid = _grid(n_per_delay=8)
    draw = sample_segment(InitialSegmentSpec.constant(1.0), grid, seed=1, path_index=range(1))
    assert np.array_equal(draw, np.ones((9, 1)))


def test_segment_table_linear_interpolation():
    grid = _grid(n_per_delay=4, tau=1.0, horizon=1.0)
    spec = InitialSegmentSpec.table([(-1.0, 2.0), (0.0, 1.0)])
    draw = sample_segment(spec, grid, seed=1, path_index=range(1))
    assert draw[:, 0] == pytest.approx([2.0, 1.75, 1.5, 1.25, 1.0])


def test_segment_table_must_cover_delay_window():
    grid = _grid(n_per_delay=4, tau=1.0, horizon=1.0)
    spec = InitialSegmentSpec.table([(-0.5, 2.0), (0.0, 1.0)])
    with pytest.raises(OutOfDomain):
        sample_segment(spec, grid, seed=1, path_index=range(1))


def test_segment_lognormal_median():
    grid = _grid(n_per_delay=4)
    spec = InitialSegmentSpec.lognormal(1.0, 0.25)
    levels = sample_segment(spec, grid, seed=11, path_index=range(10_000))[0]
    assert 0.95 <= float(np.median(levels)) <= 1.05
    assert levels.min() > 0.0


def test_segment_draw_constant_within_path_for_lognormal():
    grid = _grid(n_per_delay=8)
    spec = InitialSegmentSpec.lognormal(2.0, 0.5)
    draw = sample_segment(spec, grid, seed=4, path_index=range(7, 8))
    assert np.all(draw == draw[0])


def test_segment_independent_of_noise_resolution():
    # refining the Brownian grid must not change the segment draw of a path
    spec = InitialSegmentSpec.lognormal(1.0, 0.25)
    coarse_level = sample_segment(spec, _grid(8), seed=21, path_index=range(3, 4))[0]
    fine_level = sample_segment(spec, _grid(64), seed=21, path_index=range(3, 4))[0]
    assert np.array_equal(coarse_level, fine_level)


@pytest.mark.parametrize(
    "spec",
    [
        InitialSegmentSpec.constant(1.5),
        InitialSegmentSpec.table([(-0.5, 2.0), (0.0, 1.0)]),
        InitialSegmentSpec.lognormal(1.0, 0.25),
    ],
    ids=["constant", "table", "lognormal"],
)
def test_segment_range_columns_are_the_single_path_draws(spec):
    grid = _grid(n_per_delay=8)
    paths = range(3, 8)
    values = sample_segment(spec, grid, seed=5, path_index=paths)
    assert values.shape == (grid.n_per_delay + 1, len(paths))
    assert not values.flags.writeable
    for col, i in enumerate(paths):
        single = sample_segment(spec, grid, seed=5, path_index=range(i, i + 1))
        assert single.shape == (grid.n_per_delay + 1, 1)
        assert np.array_equal(values[:, col : col + 1], single)


def test_segment_stream_disjoint_from_noise_stream():
    grid = _grid(n_per_delay=8)
    inc = generate(grid, seed=6, path_index=range(1))
    level = sample_segment(
        InitialSegmentSpec.lognormal(1.0, 1.0), grid, seed=6, path_index=range(1)
    )[0, 0]
    z = math.log(level)  # the standard normal behind the draw (median 1, sd 1)
    assert not np.any(np.isclose(inc / math.sqrt(grid.delta), z))


@pytest.mark.parametrize(
    "draw",
    [
        lambda grid: generate(grid, 1, 0),
        lambda grid: sample_segment(InitialSegmentSpec.constant(1.0), grid, 1, 0),
        lambda grid: sample_segment(InitialSegmentSpec.lognormal(1.0, 0.25), grid, 1, 0),
    ],
    ids=["generate", "constant-segment", "lognormal-segment"],
)
def test_one_path_is_a_range_of_one_not_an_int(draw):
    with pytest.raises(TypeError, match="path_index must be a range of paths, not int"):
        draw(_grid(n_per_delay=8))


@pytest.mark.parametrize(
    "draw",
    [
        lambda grid, paths: generate(grid, 1, paths),
        lambda grid, paths: sample_segment(
            InitialSegmentSpec.lognormal(1.0, 0.25), grid, 1, paths
        ),
    ],
    ids=["generate", "lognormal-segment"],
)
@pytest.mark.parametrize("paths", [range(-1, 3), range(2, -2, -1)], ids=["first", "last"])
def test_a_range_that_holds_a_negative_path_is_rejected(draw, paths):
    with pytest.raises(ValueError, match="path_index must hold nonnegative paths"):
        draw(_grid(n_per_delay=8), paths)


def test_the_normal_range_that_validate_assumes_is_that_of_the_draws():
    # the least uniform (0 + 1/2) 2^-53 and the greatest, clamped below 1
    assert model._Z_LO == float(noise.ndtri(np.float64(2.0**-54)))
    assert model._Z_HI == float(noise.ndtri(np.float64(1.0 - 2.0**-53)))


def test_a_negative_seed_is_named():
    with pytest.raises(ValueError) as info:
        noise.check_seed(-1)
    assert info.value.argument == "seed"
    noise.check_seed(0)
