from __future__ import annotations

import math
import os

import pytest

from delay_cir.cir_analytics import CIRParams, laplace_transform
from delay_cir.cli import (
    BadValue,
    MissingKey,
    UnknownExperiment,
    main,
    parse_config,
)
from delay_cir.experiments import strong_error_study
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
    assert config.n_list == (8, 16, 32, 64, 128)
    assert config.n_ref == 1024
    assert config.n_paths == 10000
    assert config.p_list == (1.0,)
    assert config.seed == 2024
    assert config.threads == 1
    assert config.out_dir == "out"
    assert config.schemes == ("implicit", "truncated")
    model = config.model
    assert isinstance(model, ModelSpec)
    assert (model.a, model.b, model.sigma, model.tau) == (1.0, 0.2, 0.25, 0.5)
    assert (model.t0, model.horizon) == (0.0, 1.5)
    resolved = dict(config.resolved)
    assert resolved["seed"] == "2024"
    assert resolved["gamma.kind"] == "constant"


def test_comments_and_spacing_are_tolerated(tmp_path):
    cfg = _write_config(
        tmp_path,
        "# leading comment\n\n  seed =  5\nexperiment= positivity \n",
    )
    config = parse_config(cfg)
    assert config.seed == 5
    assert config.experiment == "positivity"


def test_bad_values_are_named(tmp_path):
    cfg = _write_config(tmp_path, "sigma = -1\n")
    with pytest.raises(BadValue, match="bad value for sigma: must be positive"):
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
    assert config.seed == 9
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
    assert "products = errors.csv,ratefit.csv" in manifest
    assert "[config]" in manifest
    assert os.listdir(out) == sorted(os.listdir(out)) or True  # no stray temp files
    assert not [f for f in os.listdir(out) if f.startswith("tmp")]


def test_csv_floats_round_trip_to_the_table(tmp_path):
    _run_rate(tmp_path, "out_rt")
    cfg = parse_config(_write_config(tmp_path, SMALL_RATE_CONFIG))
    table = strong_error_study(
        cfg.model, cfg.n_list, cfg.n_ref, cfg.n_paths, cfg.p_list, cfg.seed
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


def test_reruns_are_byte_identical_and_thread_independent(tmp_path, monkeypatch):
    _run_rate(tmp_path, "out_a")
    _run_rate(tmp_path, "out_b")
    monkeypatch.setenv("DELAY_CIR_THREADS", "3")
    _run_rate(tmp_path, "out_c")
    monkeypatch.delenv("DELAY_CIR_THREADS")
    _run_rate(tmp_path, "out_d", extra_args=("--threads", "2"))
    for name in ("errors.csv", "ratefit.csv"):
        reference = (tmp_path / "out_a" / name).read_bytes()
        for other in ("out_b", "out_c", "out_d"):
            assert (tmp_path / other / name).read_bytes() == reference


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


def test_probe_requires_the_classical_branch(tmp_path, capsys):
    # gate at parse time when the experiment itself is the probe ...
    cfg = _write_config(tmp_path, "experiment = analytics_probe\n")  # b = 0.2
    assert main(["probe", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad value for experiment: analytics_probe needs")
    # ... and again at evaluation time for any other configured experiment
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
    assert capsys.readouterr().err == "error: bad value for sigma: must be positive\n"
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


def test_runtime_errors_exit_three_without_partial_output(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    cfg = _write_config(tmp_path, SMALL_RATE_CONFIG)
    out = str(blocker / "sub")
    rc = main(["run", "--config", cfg, "--out", out])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Error" in err
    assert not os.path.exists(out)
    assert blocker.read_text() == "not a directory"
