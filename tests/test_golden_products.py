"""Pinned SHA-256 of every CSV product, one small config per experiment.

The hashes were recorded from the implementation that preceded the
time-major path engine; a refactor of the simulation or reduction code must
leave every byte of every product unchanged.  The strong-rate, mean-check and
positivity configs use 2100 paths, so they cross the 2048-path chunk
boundary; the strong-rate config also runs on two worker processes.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from delay_cir.cli import main
from delay_cir.experiments import walk_plan
from delay_cir.model import GammaSpec, InitialSegmentSpec, ModelSpec, build_grid

GOLDEN = {
    "strong_rate": (
        "N_list = 4,8,16\nN_ref = 64\nn_paths = 2100\np_list = 1.0,2.0\n"
        "threads = 2\nseed = 11\n",
        {
            "errors.csv": "ab867f1464e7786a6c5d651083fae0fadddb041279e188adbee76844012ff860",
            "ratefit.csv": "15da59bcb547846e5f24958cc7f97c835981cc9bc2f30316b28578cb5409d37a",
        },
    ),
    "mean_check": (
        "experiment = mean_check\nN = 16\ninitial.kind = lognormal\n"
        "initial.median = 1.0\ninitial.log_sd = 0.2\nn_paths = 2100\nseed = 12\n",
        {"mean.csv": "c15c9fff39b46286a98819b6221f334d0b8ba3fa876dd632f6af3d68892ca534"},
    ),
    "comparison": (
        "experiment = comparison\nN = 16\nn_paths = 300\nseed = 13\n",
        {"comparison.csv": "5dce0c9ef5cfdd4a1cbbc9c8208ab24df398dcd7e37fed0ca76fced25cf27ecd"},
    ),
    "positivity": (
        "experiment = positivity\nscheme = implicit,truncated,symmetrized\n"
        "b = 0\nsigma = 1.2\nN = 16\nn_paths = 2100\nseed = 14\n",
        {"census.csv": "9e76304d0fe50c88e0f85230bfe2dcf6aedb69b59e3c3eab454645f1d33dee92"},
    ),
    "modulus": (
        "experiment = modulus\nN = 32\nn_paths = 300\nseed = 15\n",
        {
            "modulus.csv": "9cfa5f3bafcf5c71742c9029c40f75307a4aec9dff4d37b9e266f0dbed62d71f",
            "modulusfit.csv": "2954b4e2119c2b35af883baa9503ddb4a5ea92f4fff4818983fefd89d36f4fd5",
        },
    ),
    # re-recorded when each path's trapezoid sum became a running row in node
    # order, 1/2 x_0 + x_1 + ... + 1/2 x_K, in place of numpy's pairwise sum
    # of the whole path: the value moved from 0.19264312641279738 to
    # 0.19264312641279735 (1.4e-16 relative), its standard error by 2.2e-16
    "survival": (
        "experiment = survival\nb = 0.3\ninitial.kind = table\n"
        "initial.points = -0.5:1.2; 0:0.9\nN = 32\nn_paths = 300\nseed = 16\n",
        {"survival.csv": "122b318f8c69b69fbbeddca2b285c7564f41aa5a131db159b5ec93c2ae5cbd08"},
    ),
    # re-recorded when neg_moment became a closed form: its value moved from
    # 1.047807036116416 to 1.0478070361164158, both within 1.2e-16 of the
    # 50-digit 1.047807036116415914; the laplace and mean rows kept their bytes
    "analytics_probe": (
        "experiment = analytics_probe\nb = 0\nsigma = 0.5\n",
        {"analytics.csv": "350952ebab3aca2150dccf46a755933d4afef4074d7f2d834412b3355d220708"},
    ),
}


@pytest.mark.parametrize("experiment", sorted(GOLDEN))
def test_products_match_the_pinned_hashes(tmp_path, experiment):
    text, expected = GOLDEN[experiment]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    got = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in sorted(expected)
    }
    assert got == expected
    written = sorted(p.name for p in out.iterdir() if p.suffix == ".csv")
    assert written == sorted(expected)


def test_a_run_where_os_cannot_tell_the_usable_cpus_keeps_its_bytes(tmp_path, monkeypatch):
    # Python's os has no sched_getaffinity on macOS and Windows; there the
    # machine's CPU count bounds the processes, at one worker too
    monkeypatch.delattr(os, "sched_getaffinity")
    test_products_match_the_pinned_hashes(tmp_path, "mean_check")
    model = ModelSpec(
        a=1.0, b=0.2, sigma=0.25, tau=0.5, t0=0.0, horizon=1.5,
        gamma=GammaSpec.constant(1.0), initial=InitialSegmentSpec.constant(1.0),
    )
    grid = build_grid(model, 4)
    for workers in (1, 2, 64):
        plan = walk_plan(model, grid, [(model, grid, 1)], 64, workers, fold_rows=lambda span: 0)
        assert plan.processes == min(workers, os.cpu_count())
