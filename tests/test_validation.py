"""Every input rule is checked once, in the layer that owns it, before any
path is simulated: a bad config exits 2 and leaves no output directory."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from delay_cir import experiments, noise
from delay_cir.cli import DEFAULTS, EXPERIMENTS, ConfigError, main, parse_config, run
from delay_cir.experiments import InsufficientRows, check_levels, check_path_count
from delay_cir.model import (
    GammaSpec,
    InitialSegmentSpec,
    ModelSpec,
    OutOfDomain,
    OutOfRange,
    validate,
)

# knots on [-0.2, 0] against the default delay window [-0.5, 0]
SHORT_TABLE = "initial.kind = table\ninitial.points = -0.2:1; 0:1\n"
LOW_START = "initial.kind = lognormal\ninitial.median = 1e-300\ninitial.log_sd = 37\n"
# 10^400, an integer of 1329 bits: int to float raises OverflowError
HUGE = "1" + "0" * 400
# a sinusoid whose last phase omega (horizon - t0) = 1e600 overflows
FAST_SINE = "gamma.kind = sinusoid\ngamma.amplitude = 0.1\ngamma.omega = 1e300\nhorizon = 1e300\n"


def _model(**kw) -> ModelSpec:
    base = dict(
        a=1.0, b=0.2, sigma=0.25, tau=0.5, t0=0.0, horizon=1.5,
        gamma=GammaSpec.constant(1.0), initial=InitialSegmentSpec.constant(1.0),
    )
    base.update(kw)
    return ModelSpec(**base)


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("run", "experiment = survival\n" + SHORT_TABLE, "initial.points: segment table covers"),
        ("validate", "experiment = survival\n" + SHORT_TABLE, "initial.points: segment table"),
        ("probe", "b = 0\n" + SHORT_TABLE, "initial.points: segment table covers"),
        ("run", "initial.kind = table\ninitial.points = 0:1\n",
         "initial.points: table segment needs at least two"),
        ("run", "initial.kind = table\ninitial.points = 0:1; -0.5:1\n",
         "initial.points: table knots must be sorted"),
        ("validate", "sigma = 1e300\n", "sigma: sigma^2 leaves the float range"),
        ("validate", "sigma = 1e-300\n", "sigma: sigma^2 leaves the float range"),
        ("run", "sigma = 1e300\n", "sigma: sigma^2 leaves the float range"),
        ("validate", "tau = 1e-300\nhorizon = 1e300\n",
         "model: (horizon - t0) / tau leaves the float range"),
        ("run", "b = -1\n", "b: b must be nonnegative and finite, got -1.0"),
        ("run", "horizon = 0\n", "horizon: horizon=0.0 must be finite and exceed t0=0.0"),
        ("run", "experiment = mean_check\ninitial.kind = lognormal\n"
         "initial.median = 1\ninitial.log_sd = 1e300\n",
         "model: E[X0] = median exp(log_sd^2 / 2) leaves the float range"),
        # about 1e302 nodes per path, more than any array holds
        ("run", "experiment = survival\nhorizon = 1e300\n", "horizon: 1.28e+302 nodes"),
        ("run", "experiment = mean_check\ntau = 1e-300\n", "horizon: 9.6e+301 nodes"),
        ("run", "experiment = comparison\nhorizon = 1e300\n", "horizon: 1.28e+302 nodes"),
        ("probe", "b = 0\na = 1e-300\nprobe.t = 1e-300\n", "probe.t: elapsed time 1e-300"),
        # about x0^-1.5 = 1e450 a moment after a start of 1e-300
        ("probe", "b = 0\ninitial.level = 1e-300\nprobe.t = 1e-300\nprobe.p = 1.5\n",
         "probe.p: E[X(t)^(-p)] leaves the float range"),
        ("probe", "b = 0\ninitial.level = 1e300\nprobe.p = 2\n",
         "probe.p: E[X(t)^(-p)] leaves the float range"),
        ("run", "sigma = 1.5\np_list = 0.1\nN_list = 2,4,8\nN_ref = 16\n",
         "model: strong error study requires sigma^2 < 2 a inf(gamma)"),
        # a rule of one parameter names its key
        ("run", "a = 0\n", "a: a must be positive and finite, got 0.0"),
        ("run", "gamma.level = 0\n", "gamma.level: inf gamma = 0.0"),
        ("run", "initial.level = -1\n", "initial.level: initial level must be positive"),
        ("run", "initial.kind = lognormal\ninitial.median = 0\ninitial.log_sd = 1\n",
         "initial.median: initial median must be positive"),
        ("run", "initial.kind = lognormal\ninitial.median = 1\ninitial.log_sd = -0.5\n",
         "initial.log_sd: initial log_sd must be nonnegative"),
        # the lowest draw, median exp(-8.29 log_sd), rounds to 0
        ("validate", LOW_START, "initial.log_sd: the drawn levels"),
        ("run", "experiment = mean_check\nN = 4\nn_paths = 200\n" + LOW_START,
         "initial.log_sd: the drawn levels"),
        ("run", "experiment = mean_check\nN = 0\n", "N: grid needs at least one step"),
        ("run", "experiment = survival\nn_paths = 1\n", "n_paths: need at least two paths"),
        ("run", "experiment = modulus\nthreads = -1\n", "threads: need at least one worker"),
        # every run reads threads, the probe's too
        ("run", "experiment = analytics_probe\nb = 0\nthreads = 0\n",
         "threads: need at least one worker"),
        # the lower model of the comparison is built from gamma_lower
        ("run", "experiment = comparison\ngamma_lower = 0\n", "gamma_lower: inf gamma = 0.0"),
        # an integer too large for a float, rejected by the rule's owner
        ("run", f"experiment = mean_check\nN = {HUGE}\n",
         "N: a 1329-bit integer is too large for a float"),
        ("run", f"N_ref = {HUGE}\n", "N_ref: a 1329-bit integer is too large for a float"),
        ("run", f"N_list = 8, 16, {HUGE}\n",
         "N_list: a 1329-bit integer is too large for a float"),
        ("run", f"experiment = survival\nn_paths = {HUGE}\n",
         "n_paths: a 1329-bit integer is too large for a float"),
        # a float, but more paths than an array holds results of
        ("run", f"experiment = survival\nn_paths = 1{'0' * 300}\n",
         "n_paths: 1e+300 paths exceed the largest array"),
        # an N_ref that fits a float, whose steps (horizon - t0) N_ref / tau do not
        ("run", f"N_ref = 1{'0' * 308}\n",
         "N_ref: (horizon - t0) N_ref / tau leaves the float range"),
        # an N that fits a float, whose steps (horizon - t0) N / tau do not
        ("run", f"experiment = survival\nN = 1{'0' * 308}\n",
         "horizon: (horizon - t0) N / tau leaves the float range"),
        ("validate", FAST_SINE, "model: the sinusoid's last phase omega (horizon - t0)"),
        ("run", FAST_SINE, "model: the sinusoid's last phase omega (horizon - t0)"),
        # tau / N = 1 at N = 8: two levels are left for delta |log delta|
        ("run", "tau = 8\nhorizon = 16\nN_list = 8,16,32\nN_ref = 64\nn_paths = 50\n",
         "N_list: a rate fit needs three levels whose step tau / N is not 1"),
    ],
    ids=[
        "run-short-table", "validate-short-table", "probe-short-table",
        "one-knot-table", "unsorted-table", "validate-huge-sigma",
        "validate-tiny-sigma", "run-huge-sigma", "window-count-overflow",
        "negative-b", "horizon-at-t0", "lognormal-mean-overflow", "survival-huge-grid",
        "mean_check-tiny-tau", "comparison-huge-grid", "probe-tiny-elapsed",
        "probe-overflowing-moment", "probe-huge-level", "strong_rate-strict-feller",
        "zero-a", "zero-gamma-level", "negative-initial-level", "zero-median",
        "negative-log_sd", "validate-underflowing-start", "run-underflowing-start",
        "no-steps-per-delay", "one-path", "negative-workers", "probe-no-workers",
        "zero-gamma_lower", "huge-N", "huge-N_ref", "huge-N_list-entry", "huge-n_paths",
        "n_paths-beyond-any-array", "overflowing-reference-step-count",
        "overflowing-step-count", "validate-overflowing-sine-phase",
        "run-overflowing-sine-phase", "strong_rate-unit-step",
    ],
)
def test_bad_inputs_exit_two_before_simulation(tmp_path, capsys, command, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    flags = ["--out", str(out)] if command == "run" else []
    assert main([command, "--config", str(cfg), *flags]) == 2
    assert capsys.readouterr().err.startswith(f"error: bad value for {message}")
    assert not out.exists()


# sigma^2 = 9 against 4 a inf(gamma) = 4: a_under = -0.625 on the whole horizon
OUTSIDE = "sigma = 3\nb = 0\nn_paths = 20\n"
DOMAIN = "the implicit scheme needs sigma^2 < 4 a inf(gamma) = "


@pytest.mark.parametrize(
    "text, message",
    [
        ("experiment = mean_check\n" + OUTSIDE, "model: " + DOMAIN + "4.0, got 9.0"),
        ("experiment = modulus\n" + OUTSIDE, "model: " + DOMAIN + "4.0, got 9.0"),
        ("experiment = survival\n" + OUTSIDE, "model: " + DOMAIN + "4.0, got 9.0"),
        # the model, not the scheme list, is outside the implicit scheme's domain
        ("experiment = positivity\n" + OUTSIDE, "model: " + DOMAIN + "4.0, got 9.0"),
        ("experiment = positivity\nscheme = symmetrized,implicit\n" + OUTSIDE,
         "model: " + DOMAIN + "4.0, got 9.0"),
        # the upper model is the configured one
        ("experiment = comparison\n" + OUTSIDE, "model: " + DOMAIN + "4.0, got 9.0"),
        # the upper model is inside the domain, the lower one is not
        ("experiment = comparison\nsigma = 1.5\ngamma_lower = 0.5\n",
         "gamma_lower: " + DOMAIN + "2.0, got 2.25"),
        # b_bar z^2 lifted the first forcing of some paths above zero: the
        # run used to march and fail at node 1 with exit 3
        ("experiment = mean_check\nsigma = 2.2\nb = 0.01\n", "model: " + DOMAIN + "4.0, got 4.84"),
    ],
    ids=[
        "mean_check", "modulus", "survival", "positivity", "positivity-symmetrized",
        "comparison-upper", "comparison-lower", "mean_check-delay-forcing",
    ],
)
def test_implicit_runs_outside_the_domain_exit_two_before_any_draw(
    tmp_path, capsys, monkeypatch, text, message
):
    def no_draw(*args, **kwargs):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr(noise, "generate", no_draw)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: bad value for {message}")
    assert not out.exists()


def test_a_census_of_baselines_only_runs_outside_the_implicit_domain(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = positivity\nscheme = truncated\n" + OUTSIDE, encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    header, row = (out / "census.csv").read_text(encoding="utf-8").splitlines()
    assert header == "scheme,fraction_nonpositive,n_paths" and row.startswith("truncated,")


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_every_experiment_plans_on_the_defaults(tmp_path, experiment):
    # a plan that read a key missing from DEFAULTS would fail with KeyError
    cfg = tmp_path / "run.cfg"
    extra = "b = 0\n" if experiment == "analytics_probe" else ""
    cfg.write_text(f"experiment = {experiment}\n{extra}", encoding="utf-8")
    assert callable(parse_config(str(cfg)).run)


def test_check_levels_rejects_a_level_below_one():
    with pytest.raises(ValueError) as info:
        check_levels(_model(), [0, 4, 8], 64, [1.0])
    assert info.value.argument == "n_list"


def test_check_levels_owns_the_rate_fit_rule():
    # a study of two levels runs; their rate fit would have too few rows
    check_levels(_model(), [4, 8], 64, [1.0])
    with pytest.raises(InsufficientRows) as info:
        check_levels(_model(), [4, 8], 64, [1.0], fit=True)
    assert info.value.argument == "n_list"
    assert str(info.value) == "a rate fit needs at least three levels"
    check_levels(_model(), [4, 8, 16], 64, [1.0], fit=True)
    # at tau = 8 the level N = 8 has the step 1, which delta |log delta| maps to 0
    unit = _model(tau=8.0, horizon=16.0)
    with pytest.raises(InsufficientRows) as info:
        check_levels(unit, [8, 16, 32], 64, [1.0], fit=True)
    assert info.value.argument == "n_list"
    check_levels(unit, [8, 16, 32], 64, [1.0])
    check_levels(unit, [8, 16, 32, 64], 128, [1.0], fit=True)


def test_check_path_count_rejects_more_paths_than_an_array_holds():
    # 10^300 paths used to pass, and the run then grew a list of chunks
    # until memory ran out
    largest = np.iinfo(np.intp).max // 8
    check_path_count(largest)
    for n_paths in (largest + 1, 10**300):
        with pytest.raises(OutOfRange) as info:
            check_path_count(n_paths)
        assert info.value.argument == "n_paths"


def test_validate_rejects_a_table_that_misses_the_delay_window():
    short = InitialSegmentSpec.table([(-0.2, 1.0), (0.0, 1.0)])
    with pytest.raises(OutOfDomain):
        validate(_model(initial=short))
    # knots exactly on [t0 - tau, t0] cover it
    validate(_model(initial=InitialSegmentSpec.table([(-0.5, 1.0), (0.0, 2.0)])))


@pytest.mark.parametrize("sigma", [1e300, 1e-300])
def test_validate_rejects_a_sigma_whose_square_leaves_the_float_range(sigma):
    with pytest.raises(OutOfRange):
        validate(_model(sigma=sigma))


_EDGE_VALUES = ("0", "-1", "1e300", "1e-300", "nan", "inf", "x", "", HUGE)
_BAD_TABLES = ("-0.2:1; 0:1", "0:1", "0:1; -0.5:1")
# The model and probe values that the analytic oracles read, on the classical
# model (b = 0) that the probe needs
_ORACLE_KEYS = (
    "a", "sigma", "tau", "t0", "horizon", "gamma.level", "initial.level",
    "probe.u_list", "probe.p", "probe.t",
)


@given(
    experiment=st.sampled_from(sorted(EXPERIMENTS)),
    edits=st.one_of(
        st.dictionaries(
            st.sampled_from(sorted(DEFAULTS)), st.sampled_from(_EDGE_VALUES),
            min_size=1, max_size=4,
        ),
        st.dictionaries(
            st.sampled_from(_ORACLE_KEYS), st.sampled_from(("1e-300", "1e300")),
            min_size=1, max_size=2,
        ).map(lambda edits: {"b": "0", **edits}),
    ),
    table=st.sampled_from((None, *_BAD_TABLES)),
)
# an elapsed time so short that L = sigma^2 (1 - e^{-a s}) / (4 a) rounded
# to 0, and one so long that the negative moment is the stationary one
@example(experiment="analytics_probe", edits={"b": "0", "a": "1e-300"}, table=None)
@example(experiment="analytics_probe", edits={"b": "0", "probe.t": "1e-300"}, table=None)
@example(experiment="analytics_probe", edits={"b": "0", "horizon": "1e300"}, table=None)
@example(experiment="strong_rate", edits={"b": "0", "gamma.level": "1e300"}, table=None)
# integers that no float holds
@example(experiment="mean_check", edits={"N": HUGE}, table=None)
@example(experiment="strong_rate", edits={"N_ref": HUGE}, table=None)
# times whose steps from t0, or lags whose steps, are not finite
@example(experiment="mean_check", edits={"checkpoints": "1e308"}, table=None)
@example(experiment="mean_check", edits={"checkpoints": "-1e308"}, table=None)
@example(experiment="modulus", edits={"delta_list": "1e308"}, table=None)
def test_parse_config_raises_only_config_errors(tmp_path_factory, experiment, edits, table):
    # a run is followed up to its first walk, where map_paths raises _Walked
    items = {"experiment": experiment, **edits}
    if table is not None:
        items.update({"initial.kind": "table", "initial.points": table})
    cfg = tmp_path_factory.mktemp("fuzz") / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in items.items()), encoding="utf-8")
    out = {"out": str(cfg.parent / "out")}
    for command in ("run", "validate", "probe"):
        with contextlib.suppress(ConfigError, _Walked), pytest.MonkeyPatch.context() as patch:
            config = parse_config(str(cfg), out, command=command)
            if command == "run":
                patch.setattr(experiments, "map_paths", _walk)
                run(config)


class _Walked(Exception):
    """A run reached its first walk."""


def _walk(plan, seed, reduce):
    raise _Walked
