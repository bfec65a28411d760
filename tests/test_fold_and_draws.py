"""The rate study's error fold and the blocked draws stay bit for bit equal to
the straightforward computations they replace.

* ``_fold_cell_errors`` builds a piece's interpolant with one ``np.einsum``
  into a reused buffer; the reference is the broadcast-product fold, kept
  here, walked over spans as ``strong_error_study`` walks them.
* ``_standard_normals`` fills each path's row with ``Generator.random``
  and finishes a block of rows before transposing it, and ``generate``
  scales the normals there by sqrt(delta); ``sample_segment`` computes
  each path's one word by the array kernel.  The reference draws the raw
  words of a fresh Philox keyed by (seed, path, tag), converts them as
  (k + 1/2) 2^-53 and scales the whole draw.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import level_normals
from scipy.special import ndtri

from delay_cir import noise
from delay_cir.experiments import _cell_weights, _fold_cell_errors
from delay_cir.model import TimeGrid
from delay_cir.noise import _TAG_NOISE, _TAG_SEGMENT, _standard_normals

# ---------------------------------------------------------------------------
# error fold
# ---------------------------------------------------------------------------

_REFERENCE_FOLD_ROWS = 32

# Steps per span of the walks below, rounded up to a multiple of the
# coarsest ratio: the span that the CLI's default strong-rate study plans
# for a chunk of 2048 paths (checked in tests/test_walker.py).
_SPAN_STEPS = 512


def _broadcast_fold(x_fine, x_coarse, weights, grid_max, uniform_max):
    """The fold with broadcast outer products and fresh temporaries."""
    one_minus_w, w = weights.T
    cells = x_coarse.shape[0] - 1
    r = x_fine.shape[0] // cells
    per_piece = max(1, _REFERENCE_FOLD_ROWS // r)
    part = min(r, _REFERENCE_FOLD_ROWS)
    for c0 in range(0, cells, per_piece):
        c1 = min(c0 + per_piece, cells)
        span = slice(c0 * r, c1 * r)
        left, right = x_coarse[c0:c1, None], x_coarse[c0 + 1 : c1 + 1, None]
        for i0 in range(0, r, part):
            rows = slice(i0, min(i0 + part, r))
            fine = x_fine[span].reshape(c1 - c0, r, -1)[:, rows]
            if rows.stop == r:
                np.maximum(
                    grid_max, np.abs(fine[:, -1] - right[:, 0]).max(axis=0), out=grid_max
                )
            on_fine = left * one_minus_w[span].reshape(c1 - c0, r, 1)[:, rows]
            on_fine += right * w[span].reshape(c1 - c0, r, 1)[:, rows]
            np.subtract(fine, on_fine, out=on_fine)
            np.abs(on_fine, out=on_fine)
            np.maximum(uniform_max, on_fine.max(axis=(0, 1)), out=uniform_max)


def _walk_blocks(fold, ratios, n_fine, x_fine, x_coarse):
    """Per-path (grid, uniform) maxima of every level, folded span by span."""
    span = -(-_SPAN_STEPS // ratios[0]) * ratios[0]
    out = np.zeros((2 * len(ratios), x_fine.shape[1]))
    for i, r in enumerate(ratios):
        weights = _cell_weights(n_fine, r)
        for k0 in range(0, n_fine, span):
            rows = slice(k0, min(k0 + span, n_fine))
            fold(
                x_fine[rows],
                x_coarse[i][k0 // r : rows.stop // r + 1],
                weights[rows],
                out[2 * i],
                out[2 * i + 1],
            )
    return out


@pytest.mark.parametrize("ratios", [(128, 64, 32, 16, 8), (12, 6, 3)])
@pytest.mark.parametrize("n_paths", [1, 3, 2050])
def test_fold_equals_the_broadcast_fold(ratios, n_paths):
    # two whole spans and a short last span of three coarsest cells: every
    # level has pieces of several cells (r < 32) or parts of a cell (r > 32),
    # and the last span ends with fewer cells than a piece holds
    span = -(-_SPAN_STEPS // ratios[0]) * ratios[0]
    n_fine = 2 * span + 3 * ratios[0]
    rng = np.random.default_rng(n_paths + ratios[-1])
    # a random walk in Y, and on every level its nodes plus an error of the
    # size of its steps over a cell: the maxima come from nodes anywhere in
    # a cell, its ends included
    y = 1.0 + np.cumsum(0.01 * rng.standard_normal((n_fine + 1, n_paths)), axis=0)
    x_fine = np.square(y[1:])
    x_coarse = [
        np.square(y[::r] + 0.01 * np.sqrt(r) * rng.standard_normal(y[::r].shape))
        for r in ratios
    ]
    got = _walk_blocks(_fold_cell_errors, ratios, n_fine, x_fine, x_coarse)
    want = _walk_blocks(_broadcast_fold, ratios, n_fine, x_fine, x_coarse)
    assert got.tobytes() == want.tobytes()
    assert np.all(got > 0.0)


def test_fold_of_the_coarse_interpolant_itself_is_zero():
    # the fine path equals the coarse interpolant: both maxima stay +0
    r, cells, n_paths = 48, 5, 4  # a cell of a 32-row part and a 16-row part
    rng = np.random.default_rng(3)
    x_coarse = np.square(rng.uniform(0.5, 1.5, size=(cells + 1, n_paths)))
    weights = _cell_weights(cells * r, r)
    one_minus_w, w = weights.T
    cell = np.arange(cells * r) // r
    x_fine = x_coarse[cell] * one_minus_w[:, None] + x_coarse[cell + 1] * w[:, None]
    grid_max, uniform_max = np.zeros((2, n_paths))
    _fold_cell_errors(x_fine, x_coarse, weights, grid_max, uniform_max)
    assert grid_max.tobytes() == uniform_max.tobytes() == np.zeros(n_paths).tobytes()


# ---------------------------------------------------------------------------
# blocked draws
# ---------------------------------------------------------------------------


def _raw_normals(seed, paths, tag, n, start):
    """Words start .. start + n - 1 of a fresh Philox per path, as normals."""
    out = np.empty((n, len(paths)))
    for j, path in enumerate(paths):
        bitgen = np.random.Philox(key=seed | (((path << 1) | tag) << 64))
        words = bitgen.random_raw(start + n)[start:]
        out[:, j] = ((words >> np.uint64(11)) + 0.5) * 2.0**-53
    return ndtri(out)


@pytest.mark.parametrize("skip", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "n, paths",
    [
        (1, range(0, 3)),
        (7, range(2, 40)),
        (256, range(500, 1030)),  # 506 to 509 paths per transpose block
        (3072, range(40, 130)),  # 42 paths per transpose block, whatever the skip
    ],
)
def test_draws_equal_raw_philox_words(n, paths, skip):
    start = 4 * 37 + skip
    want = _raw_normals(2024, paths, _TAG_NOISE, n, start)
    got = _standard_normals(2024, paths, _TAG_NOISE, n, start)
    assert got.tobytes() == want.tobytes()
    # the increments on a grid of step 1/6, each block scaled before its
    # transpose, equal the whole draw times sqrt(1/6)
    grid = TimeGrid(0.0, 0.5, 3, start + n + 5)
    increments = noise.generate(grid, 2024, paths, start, start + n)
    assert increments.tobytes() == (want * math.sqrt(grid.delta)).tobytes()


def test_draws_cross_small_transpose_blocks(monkeypatch):
    # blocks of two paths: every block boundary of the range is crossed, and
    # the last block is short
    monkeypatch.setattr(noise, "_BLOCK_BYTES", 8 * 2 * (7 + 3))
    for start in (0, 1, 2, 3, 8):
        got = _standard_normals(77, range(5, 16), _TAG_SEGMENT, 7, start)
        want = _raw_normals(77, range(5, 16), _TAG_SEGMENT, 7, start)
        assert got.tobytes() == want.tobytes()


def test_one_word_draws_equal_raw_philox_words():
    # the level kernel: word 0 of each path's segment stream
    paths = range(3, 2100)
    got = level_normals(11, paths)
    assert got.tobytes() == _raw_normals(11, paths, _TAG_SEGMENT, 1, 0)[0].tobytes()
