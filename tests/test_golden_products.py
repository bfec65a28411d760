"""Pinned SHA-256 of every CSV product, one small config per experiment.

The hashes were recorded from the implementation that preceded the
time-major path engine; a refactor of the simulation or reduction code must
leave every byte of every product unchanged.  The strong-rate, mean-check and
positivity configs use 2100 paths, so they cross the 2048-path chunk
boundary; the strong-rate config also runs on two worker threads.
"""

from __future__ import annotations

import hashlib

import pytest

from delay_cir.cli import main

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
    "survival": (
        "experiment = survival\nb = 0.3\ninitial.kind = table\n"
        "initial.points = -0.5:1.2; 0:0.9\nN = 32\nn_paths = 300\nseed = 16\n",
        {"survival.csv": "5eb34c4fae0c0c9601c0ccb2b8b8e224ba55ebaf5d72f1c46dd20360d3f8defb"},
    ),
    "analytics_probe": (
        "experiment = analytics_probe\nb = 0\nsigma = 0.5\n",
        {"analytics.csv": "5ab92b6660807fa68fdf31f0457119829fbf78cc441d70b3f9e9d380be0ddd81"},
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
