from __future__ import annotations

import math
import multiprocessing
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from delay_cir.cir_analytics import CIRParams, laplace_transform
from delay_cir import cli, experiments, noise
from delay_cir.cli import (
    BadValue,
    MissingKey,
    UnknownExperiment,
    main,
    parse_config,
)
from delay_cir.experiments import SurvivalEstimate, strong_error_study
from delay_cir.model import ModelSpec


def _write_config(tmp_path, text: str, name: str = "run.cfg") -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


SMALL_RATE_CONFIG = """
# small coupled-rate run
experiment = strong_rate
N_list = 4,8,16
N_ref = 32
n_paths = 20
p_list = 1.0
seed = 77
"""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_defaults_fill_every_unset_key(tmp_path):
    cfg = _write_config(tmp_path, "experiment = strong_rate\n")
    config = parse_config(cfg)
    assert config.experiment == "strong_rate"
    assert config.threads == 1
    assert config.out_dir == "out"
    model = config.model
    assert isinstance(model, ModelSpec)
    assert (model.a, model.b, model.sigma, model.tau) == (1.0, 0.2, 0.25, 0.5)
    assert (model.t0, model.horizon) == (0.0, 1.5)
    resolved = dict(config.resolved)
    assert resolved["N_list"] == "8,16,32,64,128"
    assert resolved["N_ref"] == "1024"
    assert resolved["n_paths"] == "10000"
    assert resolved["p_list"] == "1.0"
    assert resolved["seed"] == "2024"
    assert resolved["scheme"] == "implicit,truncated"
    assert resolved["gamma.kind"] == "constant"


def test_comments_and_spacing_are_tolerated(tmp_path):
    cfg = _write_config(
        tmp_path,
        "# leading comment\n\n  seed =  5\nexperiment= positivity \n",
    )
    config = parse_config(cfg)
    assert dict(config.resolved)["seed"] == "5"
    assert config.experiment == "positivity"


def test_bad_values_are_named(tmp_path):
    cfg = _write_config(tmp_path, "sigma = -1\n")
    with pytest.raises(BadValue, match="bad value for sigma: sigma must be positive"):
        parse_config(cfg)
    cfg = _write_config(tmp_path, "N_ref = 100\n")
    with pytest.raises(BadValue, match="N_ref"):
        parse_config(cfg)
    cfg = _write_config(tmp_path, "fryer = 2\n")
    with pytest.raises(BadValue, match="unrecognized key"):
        parse_config(cfg)
    cfg = _write_config(tmp_path, "just a line\n")
    with pytest.raises(BadValue, match="expected 'key = value'"):
        parse_config(cfg)
    with pytest.raises(BadValue, match="cannot read"):
        parse_config(str(tmp_path / "absent.cfg"))


def test_unknown_experiment_and_missing_dependent_keys(tmp_path):
    with pytest.raises(UnknownExperiment):
        parse_config(_write_config(tmp_path, "experiment = warp\n"))
    with pytest.raises(MissingKey, match="gamma.slope"):
        parse_config(_write_config(tmp_path, "gamma.kind = affine\n"))
    with pytest.raises(MissingKey, match="initial.points"):
        parse_config(_write_config(tmp_path, "initial.kind = table\n"))


def test_overrides_win_over_file_values(tmp_path):
    cfg = _write_config(tmp_path, "seed = 1\nout = somewhere\n")
    config = parse_config(cfg, {"seed": "9", "out": "elsewhere"})
    assert dict(config.resolved)["seed"] == "9"
    assert config.out_dir == "elsewhere"


# ---------------------------------------------------------------------------
# run products
# ---------------------------------------------------------------------------


def _run_rate(tmp_path, out_name: str, extra_args=()) -> str:
    cfg = _write_config(tmp_path, SMALL_RATE_CONFIG)
    out = str(tmp_path / out_name)
    rc = main(["run", "--config", cfg, "--out", out, *extra_args])
    assert rc == 0
    return out


def test_strong_rate_products_and_headers(tmp_path):
    out = _run_rate(tmp_path, "out1")
    errors = (tmp_path / "out1" / "errors.csv").read_text().splitlines()
    assert errors[0] == "delta,p,grid_error,uniform_error,std_err,n_paths"
    assert len(errors) == 4  # three grid levels at one order
    ratefit = (tmp_path / "out1" / "ratefit.csv").read_text().splitlines()
    assert ratefit[0] == "p,variant,slope,intercept,r_squared"
    assert len(ratefit) == 3  # both fit variants
    variants = sorted(line.split(",")[1] for line in ratefit[1:])
    assert variants == ["delta_log_delta", "plain_delta"]
    manifest = (tmp_path / "out1" / "manifest.txt").read_text().splitlines()
    assert manifest[0].startswith("tool = delay-cir")
    assert manifest[1] == "experiment = strong_rate"
    hash_line = manifest[2]
    assert hash_line.startswith("config_hash = ")
    assert len(hash_line.split(" = ")[1]) == 64
    assert "workers = 1" in manifest
    peak = [line for line in manifest if line.startswith("peak_rss_mib = ")]
    assert len(peak) == 1 and float(peak[0].split(" = ")[1]) > 0.0
    assert "products = errors.csv,ratefit.csv" in manifest
    assert "[config]" in manifest
    assert os.listdir(out) == sorted(os.listdir(out)) or True  # no stray temp files
    assert not [f for f in os.listdir(out) if f.startswith("tmp")]


def test_csv_floats_round_trip_to_the_table(tmp_path):
    _run_rate(tmp_path, "out_rt")
    cfg = parse_config(_write_config(tmp_path, SMALL_RATE_CONFIG))
    resolved = dict(cfg.resolved)
    table = strong_error_study(
        cfg.model,
        tuple(int(n) for n in resolved["N_list"].split(",")),
        int(resolved["N_ref"]),
        int(resolved["n_paths"]),
        (float(resolved["p_list"]),),
        int(resolved["seed"]),
    )
    lines = (tmp_path / "out_rt" / "errors.csv").read_text().splitlines()[1:]
    for line, row in zip(lines, table.rows):
        delta, p, grid_error, uniform_error, std_err, n_paths = line.split(",")
        assert float(delta) == row.delta
        assert float(p) == row.p
        assert float(grid_error) == row.grid_error
        assert float(uniform_error) == row.uniform_error
        assert float(std_err) == row.std_err
        assert int(n_paths) == row.n_paths


def test_reruns_are_byte_identical_and_thread_independent(tmp_path):
    _run_rate(tmp_path, "out_a")
    _run_rate(tmp_path, "out_b")
    _run_rate(tmp_path, "out_c", extra_args=("--threads", "3"))
    _run_rate(tmp_path, "out_d", extra_args=("--threads", "2"))
    for name in ("errors.csv", "ratefit.csv"):
        reference = (tmp_path / "out_a" / name).read_bytes()
        for other in ("out_b", "out_c", "out_d"):
            assert (tmp_path / other / name).read_bytes() == reference
    for out, workers in (("out_a", 1), ("out_c", 3), ("out_d", 2)):
        manifest = (tmp_path / out / "manifest.txt").read_text().splitlines()
        assert f"workers = {workers}" in manifest


def test_manifest_records_the_walk_and_products_do_not_follow_it(tmp_path):
    # the default levels over 1536 fine steps and 2048 paths: one chunk in
    # spans of 512 steps on one worker, chunks of 1024 paths in one span of
    # the whole horizon on two; a walk in one process with helper CPUs draws
    # a span ahead, which halves its spans
    cfg = _write_config(tmp_path, "horizon = 0.75\nn_paths = 2048\n")
    walks = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert main(["run", "--config", cfg, "--out", str(out), "--threads", str(workers)]) == 0
        head = (out / "manifest.txt").read_text().split("[config]")[0].splitlines()
        # the versions the run computed with, outside the config and its hash
        assert [line for line in head if line.split(" = ")[0] in ("python", "numpy", "scipy")] == [
            f"python = {platform.python_version()}",
            f"numpy = {np.__version__}",
            f"scipy = {scipy.__version__}",
        ]
        walks[workers] = {
            key: float(value)
            for key, _, value in (line.partition(" = ") for line in head)
            if key.startswith("walk_")
        }
    for name in ("errors.csv", "ratefit.csv"):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()
    one, two = walks[1], walks[2]
    # one worker draws on every CPU, two forked workers on one each, which
    # sits outside the config and its hash
    usable = experiments._usable_cpus()
    assert one["walk_draw_cpus"] == usable
    assert two["walk_draw_cpus"] == 1
    assert [key for key in walks[1] if key.startswith("walk_draw")] == ["walk_draw_cpus"]
    ahead = one["walk_draw_cpus"] > 1
    assert (one["walk_span_steps"], one["walk_chunk_paths"]) == ((256 if ahead else 512), 2048)
    assert two["walk_chunk_paths"] == 1024
    assert two["walk_span_steps"] == 1536
    # the estimate of all workers, each within the 32 MiB budget
    assert 29.5 < one["walk_memory_estimate_mib"] <= 32.0
    assert 32.0 < two["walk_memory_estimate_mib"] <= 64.0


def test_seed_override_changes_the_numbers(tmp_path):
    _run_rate(tmp_path, "out_s1")
    _run_rate(tmp_path, "out_s2", extra_args=("--seed", "78"))
    assert (tmp_path / "out_s1" / "errors.csv").read_bytes() != (
        tmp_path / "out_s2" / "errors.csv"
    ).read_bytes()


def test_mean_check_product(tmp_path):
    cfg = _write_config(
        tmp_path,
        "experiment = mean_check\nb = 0\nN = 16\nn_paths = 50\nseed = 3\n",
    )
    out = str(tmp_path / "out_mean")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    lines = (tmp_path / "out_mean" / "mean.csv").read_text().splitlines()
    assert lines[0] == "t,mc_mean,oracle_mean,z"
    assert len(lines) == 6  # five default checkpoints
    manifest = (tmp_path / "out_mean" / "manifest.txt").read_text()
    assert "products = mean.csv" in manifest


def test_run_calls_the_driver_bound_at_call_time(tmp_path, monkeypatch):
    # the benchmark's tracer wraps the drivers by replacing cli's attributes
    def fake(model, grid, n_paths, seed, threads=1):
        return SurvivalEstimate(value=0.25, std_err=0.125, n_paths=n_paths)

    monkeypatch.setattr(cli, "survival_probability", fake)
    cfg = _write_config(tmp_path, "experiment = survival\nn_paths = 7\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "survival.csv").read_text() == (
        "value,std_err,n_paths\n0.25,0.125,7\n"
    )


def test_run_calls_its_plan_once(tmp_path, monkeypatch):
    plan, calls = cli.EXPERIMENTS["survival"], []

    def counted(model, read):
        calls.append(model)
        return plan(model, read)

    monkeypatch.setitem(cli.EXPERIMENTS, "survival", counted)
    cfg = _write_config(tmp_path, "experiment = survival\nN = 4\nn_paths = 7\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_positivity_product(tmp_path):
    cfg = _write_config(
        tmp_path,
        "experiment = positivity\nN = 8\nn_paths = 50\n",
    )
    out = str(tmp_path / "out_pos")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    lines = (tmp_path / "out_pos" / "census.csv").read_text().splitlines()
    assert lines[0] == "scheme,fraction_nonpositive,n_paths"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["implicit", "truncated"]


def test_modulus_default_lags_reaching_delta_one_fit_the_other_rows(tmp_path):
    # N = 4 (delta 1/8): the default lags 1, 2, 4 and 8 reach delta = 1, whose
    # scale delta |log delta| is zero; its row is written, and left out of the fit
    cfg = _write_config(tmp_path, "experiment = modulus\nN = 4\n")
    out = tmp_path / "out_mod"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "modulus.csv").read_text().splitlines()[1:]]
    assert [float(delta) for delta, _, _ in rows] == [0.125, 0.25, 0.5, 1.0]
    xs = [math.log(math.sqrt(float(d) * abs(math.log(float(d))))) for d, _, _ in rows[:3]]
    ys = [math.log(float(modulus)) for _, _, modulus in rows[:3]]
    fit = (out / "modulusfit.csv").read_text().splitlines()
    assert fit[1] == f"1,{float(np.polyfit(xs, ys, 1)[0]):.17g}"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_mean_check_with_an_overflowing_standard_error_exits_three(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "experiment = mean_check\ninitial.kind = lognormal\ninitial.median = 1e300\n"
        "initial.log_sd = 1\nn_paths = 200\n",
    )
    out = tmp_path / "out_big"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "error: OutOfRange: the standard error at checkpoint t = 0.296875 is inf"
    )
    assert not (out / "mean.csv").exists()


# ---------------------------------------------------------------------------
# validate / probe subcommands
# ---------------------------------------------------------------------------


def test_validate_prints_the_condition_report(tmp_path, capsys):
    cfg = _write_config(tmp_path, "experiment = strong_rate\n")
    assert main(["validate", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "feller_ok = True"
    assert lines[1] == "strong_feller_ok = True"
    assert lines[2] == "p_max = 16"
    assert lines[3] == "nu = 31"
    assert lines[4] == "m = 3"


@pytest.mark.parametrize("argv", [["validate", "--threads", "2"], ["probe", "--seed", "1"]])
def test_only_run_takes_the_run_flags(tmp_path, capsys, argv):
    # validate and probe write nothing, draw no path and fork no worker
    cfg = _write_config(tmp_path, "experiment = analytics_probe\nb = 0\n")
    with pytest.raises(SystemExit) as info:
        main([*argv, "--config", cfg])
    assert info.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[1:]) in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, key",
    [
        ("experiment = mean_check\nN = x\n", "N"),
        ("experiment = strong_rate\nN_list = 8,16\nN_ref = 32\n", "N_list"),
        ("experiment = positivity\nscheme = warp\n", "scheme"),
        ("experiment = survival\nthreads = 0\n", "threads"),
    ],
    ids=[
        "mean_check-malformed-N", "strong_rate-two-levels", "positivity-unknown-scheme",
        "survival-no-workers",
    ],
)
def test_validate_reads_only_the_model(tmp_path, capsys, text, key):
    cfg = _write_config(tmp_path, text)
    assert main(["validate", "--config", cfg]) == 0
    assert capsys.readouterr().out.startswith("feller_ok = True\n")
    # the run reads the key
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: bad value for {key}: ")


def test_probe_prints_oracle_values(tmp_path, capsys):
    cfg = _write_config(tmp_path, "experiment = analytics_probe\nb = 0\n")
    assert main(["probe", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5  # three laplace points, one moment, one mean
    params = CIRParams(a=1.0, gamma=1.0, sigma=0.25, x0=1.0)
    assert lines[0].startswith("laplace ")
    first = dict(part.split("=") for part in lines[0].split(" ")[1:])
    assert float(first["u"]) == 0.5 and float(first["t"]) == 1.5
    assert float(first["value"]) == laplace_transform(params, 0.5, 1.5)
    assert lines[3].startswith("neg_moment p=0.5 t=1.5 value=")
    assert lines[4].startswith("mean t=1.5 value=")


def test_probe_at_a_very_long_time_prints_the_stationary_moment(tmp_path, capsys):
    # the negative moment's quadrature rejected t = 1e300 as too long
    cfg = _write_config(tmp_path, "experiment = analytics_probe\nb = 0\nprobe.t = 1e300\n")
    assert main(["probe", "--config", cfg]) == 0
    line = capsys.readouterr().out.splitlines()[3]
    assert line.startswith("neg_moment p=0.5 t=1.0000000000000001e+300 value=")
    # Gamma(32, scale sigma^2 / 2a = 1 / 32): E[X^-1/2] = 32^{1/2} Gamma(31.5) / Gamma(32)
    want = math.sqrt(32.0) * math.gamma(31.5) / math.gamma(32.0)
    assert float(line.split("value=")[1]) == pytest.approx(want, rel=1e-12)


BLOW_UP = (
    "experiment = positivity\nscheme = symmetrized,implicit,truncated\nb = 0\na = 50\n"
    "sigma = 0.5\ntau = 1\nN = 10\nhorizon = 80\nn_paths = 300\n"
)
BOUNDARY = (
    "experiment = positivity\nscheme = implicit,truncated,symmetrized\nb = 0\n"
    "sigma = 1.2\nN = 1024\nn_paths = 2048\n"
)


@pytest.mark.parametrize(
    "text, threads, warnings",
    [
        (BLOW_UP, 1, ["the symmetrized Euler baseline of the positivity census "
                      "overflowed on 300 of 300 paths"]),
        (BLOW_UP, 2, ["the symmetrized Euler baseline of the positivity census "
                      "overflowed on 300 of 300 paths"]),
        (BOUNDARY, 2, []),
    ],
    ids=["blow-up-1", "blow-up-2", "positivity_boundary"],
)
def test_a_blown_up_baseline_is_reported_once(tmp_path, text, threads, warnings):
    # NumPy's own overflow warnings came once per worker process (2 lines at 1
    # worker, 4 at 2); the census now says once what overflowed, and how often
    cfg = _write_config(tmp_path, text)
    env = dict(os.environ)
    paths = [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
    proc = subprocess.run(
        [sys.executable, "-m", "delay_cir.cli", "run", "--config", cfg,
         "--out", str(tmp_path / "o"), "--threads", str(threads)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "encountered" not in proc.stderr
    lines = [line for line in proc.stderr.splitlines() if "Warning" in line]
    assert [line.split("RuntimeWarning: ")[1] for line in lines] == warnings
    if warnings:
        rows = (tmp_path / "o" / "census.csv").read_text().splitlines()
        assert rows[1:] == ["symmetrized,0,300", "implicit,0,300", "truncated,1,300"]


def test_probe_requires_the_classical_branch(tmp_path, capsys):
    # the probe subcommand gates at evaluation time, even when the experiment
    # itself is the probe ...
    cfg = _write_config(tmp_path, "experiment = analytics_probe\n")  # b = 0.2
    assert main(["probe", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad value for probe: needs")
    # ... and for any other configured experiment
    cfg = _write_config(tmp_path, "experiment = strong_rate\n")
    assert main(["probe", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad value for probe")


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_config_errors_exit_two(tmp_path, capsys):
    cfg = _write_config(tmp_path, "sigma = -1\n")
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "error: bad value for sigma: sigma must be positive and finite, got -1.0\n"
    )
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_rate_grids_that_cannot_nest_exit_two(tmp_path, capsys):
    # reference no finer than the finest level (default N_list ends at 128)
    cfg = _write_config(tmp_path, "N_ref = 128\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o1")]) == 2
    assert capsys.readouterr().err == (
        "error: bad value for N_ref: must be a proper multiple of max(N_list)\n"
    )
    # 8 does not divide 12, although 16 divides N_ref
    cfg = _write_config(tmp_path, "N_list = 8,12,16\nN_ref = 48\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o2")]) == 2
    assert capsys.readouterr().err == (
        "error: bad value for N_list: must increase, each entry dividing the next\n"
    )
    cfg = _write_config(tmp_path, "N_list = 16,8\nN_ref = 64\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o3")]) == 2
    assert "bad value for N_list" in capsys.readouterr().err
    assert not (tmp_path / "o1").exists() and not (tmp_path / "o2").exists()


def test_p_at_or_above_p_max_exits_two(tmp_path, capsys):
    # the default model has p_max = 16
    cfg = _write_config(tmp_path, "p_list = 1,16\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: bad value for p_list: 16 is not below p_max = 16\n"
    )
    assert not (tmp_path / "o").exists()


def test_modulus_delta_off_the_grid_exits_two(tmp_path, capsys):
    # the default grid step is tau / N = 0.5 / 64
    cfg = _write_config(tmp_path, "experiment = modulus\ndelta_list = 0.015625,0.001\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: bad value for delta_list: modulus delta 0.001 must be a whole "
        "number of grid steps in (0, T - t0]\n"
    )
    assert not (tmp_path / "o").exists()


def test_probe_time_not_after_t0_exits_two(tmp_path, capsys):
    cfg = _write_config(tmp_path, "experiment = analytics_probe\nb = 0\nprobe.t = -1\n")
    expected = "error: bad value for probe.t: need t > t0, got elapsed -1.0\n"
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == expected
    assert main(["probe", "--config", cfg]) == 2
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text, key",
    [
        # 1.3 is no whole number of steps tau / N at N = 64 ...
        ("experiment = mean_check\nhorizon = 1.3\n", "horizon"),
        ("experiment = survival\nhorizon = 1.3\n", "horizon"),
        ("experiment = comparison\nhorizon = 1.3\n", "horizon"),
        # ... nor at the rate study's levels
        ("experiment = strong_rate\nhorizon = 1.3\n", "horizon"),
        # (N_ref = 40 and 10, 20 fit; the coarsest level 2 does not)
        ("experiment = strong_rate\nhorizon = 1.3\nN_list = 2,10,20\nN_ref = 40\n",
         "horizon"),
        ("experiment = mean_check\ncheckpoints = 0.001\n", "checkpoints"),
        ("experiment = mean_check\ncheckpoints = 0.5,5.0\n", "checkpoints"),
        # every path holds X0 at t0 under a deterministic start: zero spread
        ("experiment = mean_check\ncheckpoints = 0.0,0.5\n", "checkpoints"),
        ("experiment = mean_check\ncheckpoints = 0.0,0.5\ninitial.kind = table\n"
         "initial.points = -0.5:1; 0:2\n", "checkpoints"),
        # (t - t0) / delta or d / delta is not finite: no step count at all
        ("experiment = mean_check\ncheckpoints = 1e308\n", "checkpoints"),
        ("experiment = mean_check\ncheckpoints = -1e308\n", "checkpoints"),
        ("experiment = modulus\ndelta_list = 1e308\n", "delta_list"),
        ("experiment = positivity\nscheme = implicit,symmetrized\n", "scheme"),
        ("experiment = comparison\ngamma_lower = 1.5\n", "gamma_lower"),
        # two levels simulate fine but leave fit_rate too few rows
        ("experiment = strong_rate\nN_list = 8,16\nN_ref = 32\n", "N_list"),
    ],
    ids=[
        "mean_check-horizon", "survival-horizon", "comparison-horizon",
        "strong_rate-horizon", "strong_rate-coarse-level", "checkpoint-off-grid",
        "checkpoint-after-T", "checkpoint-t0-constant-start",
        "checkpoint-t0-table-start", "checkpoint-beyond-any-step",
        "checkpoint-before-any-step", "modulus-delta-beyond-any-step",
        "symmetrized-with-delay", "gamma_lower-above-inf",
        "strong_rate-two-levels",
    ],
)
def test_plan_time_config_errors_exit_two(tmp_path, capsys, text, key):
    cfg = _write_config(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: bad value for {key}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text",
    [
        # the levels and orders bind the rate study only
        "experiment = mean_check\nN_ref = 100\n",
        "experiment = mean_check\nN_list = 0,4\np_list = -1\n",
        "experiment = positivity\nN_list = 16,8\np_list = 20\n",
        # the modulus reads the first order only
        "experiment = modulus\np_list = 1,-1\nN_ref = 100\n",
        # scheme names bind the positivity census only
        "experiment = mean_check\nscheme = warp\n",
        "experiment = survival\nscheme = ,\n",
        # a key a run does not read is not even parsed
        "experiment = mean_check\nN_list = x\n",
        "experiment = strong_rate\nN = x\ncheckpoints = x\nprobe.p = x\n",
        "experiment = analytics_probe\nb = 0\nN = 0\nn_paths = x\nseed = -1\n",
        "experiment = positivity\ndelta_list = x\ngamma_lower = x\nprobe.t = -1\n",
    ],
    ids=[
        "mean_check-N_ref", "mean_check-levels-and-p", "positivity-levels-and-p",
        "modulus-second-p", "mean_check-scheme", "survival-no-scheme",
        "mean_check-malformed-N_list", "strong_rate-malformed-N-and-others",
        "analytics_probe-malformed-run-keys", "positivity-malformed-others",
    ],
)
def test_keys_an_experiment_does_not_read_are_not_checked(tmp_path, text):
    assert parse_config(_write_config(tmp_path, text)).experiment in text


def test_a_t0_checkpoint_of_a_lognormal_start_runs(tmp_path):
    cfg = _write_config(
        tmp_path,
        "experiment = mean_check\nn_paths = 50\ncheckpoints = 0.0,0.5\n"
        "initial.kind = lognormal\ninitial.median = 1\ninitial.log_sd = 0.2\n",
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "mean.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.0, 0.5]


@pytest.mark.parametrize("command", ["run", "probe"])
@pytest.mark.parametrize(
    "text, key, reason",
    [
        ("probe.u_list = 1,-0.5\n", "probe.u_list", "u must be nonnegative, got -0.5"),
        ("probe.p = 0\n", "probe.p", "need p > 0, got 0.0"),
        # g = 2 a gamma / sigma^2 = 20000: the moment is finite, Gamma(60) is not taken
        ("sigma = 0.01\nprobe.p = 60\n", "probe.p",
         "gamma-function order must lie in (0, 50.0], got 60.0"),
        ("sigma = 1.5\n", "probe.p",
         "finite negative moments need 2 a gamma / sigma^2 > 1, got 0.8888888888888888"),
    ],
    ids=["negative-u", "zero-p", "p-beyond-the-gamma-function", "feller-ratio-below-one"],
)
def test_probe_keys_the_oracles_reject_exit_two(tmp_path, capsys, command, text, key, reason):
    cfg = _write_config(tmp_path, f"experiment = analytics_probe\nb = 0\n{text}")
    out = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert main([command, "--config", cfg, *out]) == 2
    assert capsys.readouterr().err == f"error: bad value for {key}: {reason}\n"
    assert not (tmp_path / "o").exists()


def test_mean_check_runs_with_an_unused_reference_level(tmp_path):
    cfg = _write_config(tmp_path, "experiment = mean_check\nN_ref = 100\nn_paths = 20\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_mean_check_runs_with_a_malformed_unused_level_list(tmp_path):
    cfg = _write_config(tmp_path, "experiment = mean_check\nN_list = x\nn_paths = 20\n")
    assert dict(parse_config(cfg).resolved)["N_list"] == "x"
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    manifest = (tmp_path / "o" / "manifest.txt").read_text()
    assert "N_list = x\n" in manifest
    # the first default checkpoint of N = 64: step 38 of 192, each 0.5 / 64
    mean = (tmp_path / "o" / "mean.csv").read_text().splitlines()
    assert mean[1].startswith("0.296875,")


def test_probe_command_reads_the_probe_keys_whatever_the_experiment(tmp_path, capsys):
    cfg = _write_config(tmp_path, "experiment = mean_check\nb = 0\nprobe.p = x\nn_paths = 20\n")
    assert main(["probe", "--config", cfg]) == 2
    assert capsys.readouterr().err == "error: bad value for probe.p: not a number: 'x'\n"
    # the run itself does not read probe.p
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_probe_command_reads_no_experiment_key(tmp_path, capsys):
    cfg = _write_config(tmp_path, "experiment = mean_check\nb = 0\nN = x\n")
    assert main(["probe", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "laplace", "laplace", "laplace", "neg_moment", "mean"
    ]
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "text, key, reason",
    [
        ("experiment = strong_rate\nN_list = 0,4,8\n", "N_list", "entries must be"),
        ("experiment = strong_rate\np_list = 1,-1\n", "p_list", "entries must be"),
        ("experiment = modulus\np_list = -1\n", "p_list", "the modulus order"),
        ("experiment = modulus\np_list = 0,1\n", "p_list", "the modulus order"),
        ("experiment = positivity\nscheme = implicit,warp\n", "scheme",
         "unknown scheme 'warp'"),
        ("experiment = positivity\nscheme = ,\n", "scheme", "empty list"),
        # a malformed key that the run reads
        ("experiment = mean_check\nN = x\n", "N", "not an integer: 'x'"),
        ("experiment = strong_rate\nN_list = x\n", "N_list", "not an integer: 'x'"),
        ("experiment = modulus\ndelta_list = x\n", "delta_list", "not a number: 'x'"),
        ("experiment = comparison\ngamma_lower = x\n", "gamma_lower", "not a number"),
        ("experiment = survival\nseed = -1\n", "seed", "seed must be nonnegative, got -1"),
        ("experiment = analytics_probe\nb = 0\nprobe.u_list = x\n", "probe.u_list",
         "not a number"),
    ],
    ids=[
        "strong_rate-level", "strong_rate-p", "modulus-p", "modulus-zero-p",
        "positivity-unknown-scheme", "positivity-no-scheme", "mean_check-malformed-N",
        "strong_rate-malformed-N_list", "modulus-malformed-delta_list",
        "comparison-malformed-gamma_lower", "survival-negative-seed",
        "analytics_probe-malformed-u_list",
    ],
)
def test_keys_an_experiment_reads_are_checked(tmp_path, capsys, text, key, reason):
    cfg = _write_config(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: bad value for {key}: {reason}")
    assert not (tmp_path / "o").exists()


def test_horizon_needs_whole_steps_only_on_the_grids_a_run_uses(tmp_path):
    # 1.3 / (0.5 / N) is whole for N = 5, 10, 20, 40 but not for the unused N = 64
    cfg = _write_config(
        tmp_path,
        "horizon = 1.3\nN_list = 5,10,20\nN_ref = 40\nn_paths = 20\n",
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_worker_failures_exit_three_like_in_process(tmp_path, capsys):
    # b = 50 lifts X = Y^2 off the float range, on every path at node 1231;
    # the run fails there instead of writing NaN
    cfg = _write_config(
        tmp_path,
        "experiment = mean_check\nb = 50\nhorizon = 300\nN = 4\nn_paths = 20\n",
    )
    errs = []
    for workers in ("1", "2"):
        out = str(tmp_path / f"o{workers}")
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", cfg, "--out", out, "--threads", workers]) == 3
        errs.append(capsys.readouterr().err)
        # the output directory is made only once a run is done
        assert not os.path.exists(out)
    assert errs[0] == errs[1]
    # N = 4 puts node 1231 at t = 1231 * 0.5 / 4
    assert errs[0] == (
        "error: OutOfRange: X = Y^2 leaves the float range at node 1231 "
        "(path 0, t = 153.875)\n"
    )
    assert multiprocessing.active_children() == []


def test_an_output_directory_that_cannot_be_made_exits_two_before_any_draw(
    tmp_path, capsys, monkeypatch
):
    def no_draw(*args, **kwargs):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr(noise, "generate", no_draw)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    cfg = _write_config(tmp_path, SMALL_RATE_CONFIG)
    for out in (blocker, blocker / "sub", blocker / "sub" / "deeper"):
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: bad value for out: cannot make {out}: {blocker} is not a writable directory\n"
        )
        assert not os.path.exists(blocker / "sub")
    assert blocker.read_text() == "not a directory"


def test_a_write_that_fails_leaves_no_temporary_file(tmp_path):
    # a lone surrogate cannot be encoded as UTF-8, so the write itself fails
    target = tmp_path / "table.csv"
    with pytest.raises(UnicodeEncodeError):
        cli._write_atomic(str(target), "x\ud800\n")
    assert list(tmp_path.iterdir()) == []


def test_runtime_errors_exit_three_without_partial_output(tmp_path, capsys, monkeypatch):
    # the products are written once the run is done; a first write that
    # fails leaves the new output directory empty
    def failing_write(path, text):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_write_atomic", failing_write)
    cfg = _write_config(tmp_path, SMALL_RATE_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: OSError: [Errno 28] No space left on device\n"
    assert list(out.iterdir()) == []
