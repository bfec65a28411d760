"""Command-line front end: flat key = value configs in, manifest + CSV tables out.

Subcommands: ``validate`` prints the condition report for the configured
model, ``run`` executes one experiment and writes its CSV products, and
``probe`` evaluates the closed-form/quadrature oracles at configured points.
One ``EXPERIMENTS`` table maps each experiment to its plan, which parses the
config keys the experiment reads and returns the run that calls the
experiment's driver.  Every input that a run rejects before its first walk
is a config error, whether its plan or its driver rejects it.
Every run leaves a ``manifest.txt`` carrying the fully resolved config, a
sha256 hash of it, the tool version, the wall time, the worker count, the
peak resident set, the versions of Python, NumPy and (where the run loaded
it) SciPy, and how the paths were walked (span, chunk size and the
memory estimate of all workers); CSV files are written to a temp file and
atomically renamed, so a failed run leaves no partial tables behind.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import platform
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

from . import __version__, experiments
from .cir_analytics import CIRParams, classical_mean, laplace_transform, neg_moment
from .experiments import (
    check_levels,
    check_worker_count,
    classical_variant,
    comparison_census,
    fit_rate,
    mean_consistency_check,
    modulus_scaling,
    positivity_census,
    strong_error_study,
    survival_probability,
)
from .model import (
    GAMMA_PARAMS,
    INITIAL_PARAMS,
    GammaSpec,
    InitialSegmentSpec,
    ModelSpec,
    build_grid,
    gamma_bounds,
    validate as validate_model,
)
from .noise import check_seed


class ConfigError(ValueError):
    """Base class for configuration problems (exit code 2)."""


class MissingKey(ConfigError):
    def __init__(self, key: str):
        self.key = key
        super().__init__(f"missing required key {key}")


class BadValue(ConfigError):
    def __init__(self, key: str, reason: str):
        self.key = key
        self.reason = reason
        super().__init__(f"bad value for {key}: {reason}")


class UnknownExperiment(ConfigError):
    def __init__(self, name: str):
        super().__init__(f"unknown experiment {name!r}")


# Defaults for every key; a minimal (even empty) config file resolves to the
# reference strong-rate study.  Keys whose default is None are conditionally
# required (MissingKey) or derived from the grid when absent.
DEFAULTS: dict[str, str | None] = {
    "experiment": "strong_rate",
    "a": "1.0",
    "b": "0.2",
    "sigma": "0.25",
    "tau": "0.5",
    "t0": "0.0",
    "horizon": "1.5",
    "gamma.kind": "constant",
    "gamma.level": "1.0",
    "gamma.slope": None,
    "gamma.amplitude": None,
    "gamma.omega": None,
    "initial.kind": "constant",
    "initial.level": "1.0",
    "initial.median": None,
    "initial.log_sd": None,
    "initial.points": None,
    "N": "64",
    "N_list": "8,16,32,64,128",
    "N_ref": "1024",
    "n_paths": "10000",
    "p_list": "1.0",
    "seed": "2024",
    "threads": "1",
    "out": "out",
    "scheme": "implicit,truncated",
    "checkpoints": None,
    "delta_list": None,
    "gamma_lower": None,
    "probe.u_list": "0.5,1.0,2.0",
    "probe.p": "0.5",
    "probe.t": None,
}


@dataclass(frozen=True)
class RunConfig:
    """A parsed config and its planned run (see ``EXPERIMENTS``); ``threads``
    is None unless the command is ``run``, and ``run`` None for ``validate``."""

    experiment: str
    model: ModelSpec
    threads: int | None
    out_dir: str
    resolved: tuple[tuple[str, str], ...] = field(repr=False)
    run: Callable | None = field(repr=False)


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise BadValue(key, f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise BadValue(key, "must be finite")
    return value


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise BadValue(key, f"not an integer: {raw!r}") from None


def _parse_list(key: str, raw: str, scalar) -> tuple:
    parts = [part.strip() for part in raw.split(",") if part.strip()]
    if not parts:
        raise BadValue(key, "empty list")
    return tuple(scalar(key, part) for part in parts)


def _read_items(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise BadValue("config", f"cannot read {path}: {exc.strerror}") from None
    items: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise BadValue(f"line {lineno}", f"expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise BadValue(key, "unrecognized key")
        items[key] = raw.strip()
    return items


def _require(items: dict[str, str], key: str) -> str:
    value = items.get(key)
    if value is None:
        raise MissingKey(key)
    return value


def _params(items: dict[str, str], names) -> tuple[float, ...]:
    """The floats of the parameters ``names`` of the configured kind, in
    order, each read from its config key."""
    return tuple(_parse_float(_KEYS[name], _require(items, _KEYS[name])) for name in names)


def _build_gamma(items: dict[str, str]) -> GammaSpec:
    kind = items["gamma.kind"]
    if kind not in GAMMA_PARAMS:
        raise BadValue("gamma.kind", f"must be constant, affine or sinusoid, got {kind!r}")
    return GammaSpec(kind, _params(items, GAMMA_PARAMS[kind]))


def _build_initial(items: dict[str, str]) -> InitialSegmentSpec:
    kind = items["initial.kind"]
    if kind not in INITIAL_PARAMS:
        raise BadValue("initial.kind", f"must be constant, table or lognormal, got {kind!r}")
    if kind != "table":
        return InitialSegmentSpec(kind, _params(items, INITIAL_PARAMS[kind]))
    points = []
    for chunk in _require(items, "initial.points").split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        t_raw, sep, v_raw = chunk.partition(":")
        if not sep:
            raise BadValue("initial.points", f"expected 't:value', got {chunk!r}")
        points.append(tuple(_parse_float("initial.points", raw.strip()) for raw in (t_raw, v_raw)))
    return _checked("initial.points", InitialSegmentSpec.table, points)


# Config keys of the library arguments (an error's ``argument``) that go by
# another name; an argument such as ``a`` or ``seed`` is its own key.
_KEYS = {
    "gamma0": "gamma.level",
    "slope": "gamma.slope",
    "amplitude": "gamma.amplitude",
    "omega": "gamma.omega",
    "level": "initial.level",
    "median": "initial.median",
    "log_sd": "initial.log_sd",
    "points": "initial.points",
    "n_per_delay": "N",
    "n_steps": "horizon",
    "n_list": "N_list",
    "n_ref": "N_ref",
    "p": "p_list",
    "model_lower": "gamma_lower",
    "t": "probe.t",
}


def _bad_value(exc: ValueError, default_key: str) -> BadValue:
    """``exc`` as :class:`BadValue` of the config key of the argument that
    it names, or of ``default_key`` where it names none or no config key."""
    argument = getattr(exc, "argument", None)
    key = _KEYS.get(argument, argument)
    return BadValue(key if key in DEFAULTS else default_key, str(exc))


def _checked(default_key, check, *args, **kwargs):
    """``check(*args, **kwargs)``, its ``ValueError`` re-raised by :func:`_bad_value`."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise _bad_value(exc, default_key) from None


def _require_classical(model: ModelSpec, key: str, subject: str = "") -> None:
    """The analytic oracles address the classical model only."""
    if model.b != 0.0 or model.gamma.kind != "constant" or model.initial.is_random:
        raise BadValue(
            key, f"{subject}needs b = 0, constant gamma and a deterministic start"
        )


def parse_config(
    path: str, overrides: dict[str, str] | None = None, command: str = "run"
) -> RunConfig:
    """Read, resolve against defaults, validate, and freeze a run config.

    ``command`` is the subcommand that reads the config.  ``run`` parses
    ``threads`` and plans the configured experiment (see ``EXPERIMENTS``);
    ``probe`` plans the analytic probe, and ``validate`` reads only the model.
    A plan parses the keys it reads, so a malformed value of a key that is
    not read is no error.
    """
    items = dict(DEFAULTS)
    items.update(_read_items(path))
    if overrides:
        items.update(overrides)

    experiment = items["experiment"]
    if experiment not in EXPERIMENTS:
        raise UnknownExperiment(experiment)

    fields = ("a", "b", "sigma", "tau", "t0", "horizon")
    model = ModelSpec(
        **{key: _parse_float(key, items[key]) for key in fields},
        gamma=_build_gamma(items),
        initial=_build_initial(items),
    )
    _checked("model", validate_model, model)

    def read(key, parse, *scalar):
        """``key``'s value parsed by ``parse``, or None if it is unset."""
        raw = items[key]
        return None if raw is None else parse(key, raw, *scalar)

    threads = plan = None
    if command == "run":
        threads = read("threads", _parse_int)
        _checked("threads", check_worker_count, threads)
        plan = EXPERIMENTS[experiment]
    elif command == "probe":
        _require_classical(model, "probe")
        plan = _analytics_probe

    resolved = tuple(
        (key, "" if items[key] is None else str(items[key]))
        for key in sorted(items)
    )
    return RunConfig(
        experiment=experiment,
        model=model,
        threads=threads,
        out_dir=items["out"],
        resolved=resolved,
        run=plan(model, read) if plan else None,
    )


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

# An experiment's plan ``(model, read)`` parses the keys the experiment reads
# with ``read(key, parse, *scalar)``, resolves what it uses, defaults included,
# and checks only what no driver checks before its first walk (:func:`run`),
# raising a BadValue of the key at fault.  It returns
# ``run(threads)``, which calls the driver on ``threads`` worker processes and
# returns the CSV products as {file name: (header, rows)}.  parse_config calls
# the plan once per run; plans look the drivers and the model helpers up as
# module globals when they are called.


def _table(header: str, records):
    """A product ``(header, rows)``: per record, its fields named in ``header``."""
    names = header.split(",")
    return header, [tuple(getattr(record, name) for name in names) for record in records]


def _grid(model: ModelSpec, read):
    return _checked("horizon", build_grid, model, read("N", _parse_int))


def _sample(read):
    """(n_paths, seed) of a simulating experiment."""
    n_paths, seed = read("n_paths", _parse_int), read("seed", _parse_int)
    _checked("seed", check_seed, seed)
    return n_paths, seed


def _orders(read):
    """The moment orders ``p_list``."""
    return read("p_list", _parse_list, _parse_float)


def _strong_rate(model: ModelSpec, read):
    n_list = read("N_list", _parse_list, _parse_int)
    n_ref = read("N_ref", _parse_int)
    p_list = _orders(read)
    n_paths, seed = _sample(read)
    # fit=True: the rate fit's rule, which no driver checks before its walk
    _checked("model", check_levels, model, n_list, n_ref, p_list, fit=True)

    def run(threads):
        table = strong_error_study(
            model, n_list, n_ref, n_paths, p_list, seed, threads=threads
        )
        fits = [
            fit_rate(table, p=p, variant=variant)
            for p in p_list
            for variant in ("plain_delta", "delta_log_delta")
        ]
        return {
            "errors.csv": _table("delta,p,grid_error,uniform_error,std_err,n_paths", table.rows),
            "ratefit.csv": _table("p,variant,slope,intercept,r_squared", fits),
        }

    return run


def _mean_check(model: ModelSpec, read):
    grid = _grid(model, read)
    n_paths, seed = _sample(read)
    checkpoints = read("checkpoints", _parse_list, _parse_float)
    if checkpoints is None:
        count = min(5, grid.n_steps)
        ks = {max(1, round(j * grid.n_steps / count)) for j in range(1, count + 1)}
        checkpoints = tuple(float(grid.time(k)) for k in sorted(ks))

    def run(threads):
        rows = mean_consistency_check(model, grid, n_paths, checkpoints, seed, threads)
        return {"mean.csv": _table("t,mc_mean,oracle_mean,z", rows)}

    return run


def _comparison(model: ModelSpec, read):
    grid = _grid(model, read)
    n_paths, seed = _sample(read)
    gamma_lower = read("gamma_lower", _parse_float)
    if gamma_lower is None:  # the infimum of gamma
        gamma_lower = gamma_bounds(model.gamma, model.t0, model.horizon)[0]
    lower = classical_variant(model, gamma_level=gamma_lower)

    def run(threads):
        violations = comparison_census(model, lower, grid, n_paths, seed, threads)
        return {"comparison.csv": ("n_paths,violations", [(n_paths, violations)])}

    return run


def _positivity(model: ModelSpec, read):
    grid = _grid(model, read)
    n_paths, seed = _sample(read)
    schemes = read("scheme", _parse_list, lambda key, name: name)

    def run(threads):
        rows = positivity_census(schemes, model, grid, n_paths, seed, threads)
        return {"census.csv": _table("scheme,fraction_nonpositive,n_paths", rows)}

    return run


def _modulus(model: ModelSpec, read):
    grid = _grid(model, read)
    n_paths, seed = _sample(read)
    p = _orders(read)[0]
    deltas = read("delta_list", _parse_list, _parse_float) or tuple(
        grid.delta * lag for lag in (1, 2, 4, 8, 16) if lag <= grid.n_steps
    )

    def run(threads):
        result = modulus_scaling(model, grid, n_paths, deltas, seed, p=p, threads=threads)
        rows = [(r.delta, result.p, r.modulus) for r in result.rows]
        return {
            "modulus.csv": ("delta,p,modulus", rows),
            "modulusfit.csv": _table("p,slope", [result]),
        }

    return run


def _survival(model: ModelSpec, read):
    grid = _grid(model, read)
    n_paths, seed = _sample(read)

    def run(threads):
        est = survival_probability(model, grid, n_paths, seed, threads)
        return {"survival.csv": _table("value,std_err,n_paths", [est])}

    return run


def _analytics_probe(model: ModelSpec, read):
    """The oracles at the probe points, evaluated here so that their argument
    checks are config errors; the ``probe`` subcommand prints the rows."""
    u_list = read("probe.u_list", _parse_list, _parse_float)
    p = read("probe.p", _parse_float)
    t = read("probe.t", _parse_float)
    if t is None:
        t = model.horizon
    _require_classical(model, "experiment", "analytics_probe ")
    params = CIRParams.from_model(model)
    # an elapsed time that an oracle rejects is one of probe.t
    rows = [
        ("laplace", u, _checked("probe.u_list", laplace_transform, params, u, t)) for u in u_list
    ]
    rows.append(("neg_moment", p, _checked("probe.p", neg_moment, params, p, t).value))
    rows.append(("mean", t, classical_mean(params, t)))
    return lambda threads: {"analytics.csv": ("op,argument,value", rows)}


EXPERIMENTS = {
    "strong_rate": _strong_rate,
    "mean_check": _mean_check,
    "comparison": _comparison,
    "positivity": _positivity,
    "modulus": _modulus,
    "survival": _survival,
    "analytics_probe": _analytics_probe,
}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(out_dir: str, name: str, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_atomic(os.path.join(out_dir, name), "\n".join(lines) + "\n")


def _config_hash(config: RunConfig) -> str:
    text = "\n".join(f"{k} = {v}" for k, v in config.resolved)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _peak_rss_mib() -> float:
    """Resident high-water mark of this process or of its largest finished child.

    Worker processes keep their memory out of this process's own mark.  Linux
    reports ``ru_maxrss`` in KiB.
    """
    import resource

    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _write_manifest(config: RunConfig, wall_time: float, products, walks) -> None:
    lines = [
        f"tool = delay-cir {__version__}",
        f"experiment = {config.experiment}",
        f"config_hash = {_config_hash(config)}",
        f"wall_time_seconds = {wall_time:.3f}",
        f"workers = {config.threads}",
        f"peak_rss_mib = {_peak_rss_mib():.1f}",
        f"python = {platform.python_version()}",
        # NumPy, and SciPy where the run loaded it: the manifest imports nothing
        *(
            f"{name} = {sys.modules[name].__version__}"
            for name in ("numpy", "scipy")
            if name in sys.modules
        ),
    ]
    for plan in walks:
        lines += [
            f"walk_span_steps = {plan.span}",
            f"walk_draw_cpus = {plan.draw_cpus}",
            f"walk_chunk_paths = {plan.paths}",
            f"walk_memory_estimate_mib = {plan.bytes * plan.processes / 2**20:.1f}",
        ]
    lines += [f"products = {','.join(products)}", "", "[config]"]
    lines.extend(f"{k} = {v}" for k, v in config.resolved)
    _write_atomic(
        os.path.join(config.out_dir, "manifest.txt"), "\n".join(lines) + "\n"
    )


def _check_out_dir(out_dir: str) -> None:
    """Raise ``BadValue("out", ...)`` unless ``os.makedirs`` could make
    ``out_dir``: it is a directory, or its nearest existing ancestor is a
    directory this process may write to.  Nothing is created."""
    if os.path.isdir(out_dir):
        return
    ancestor = os.path.abspath(out_dir)
    while not os.path.lexists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not (os.path.isdir(ancestor) and os.access(ancestor, os.W_OK | os.X_OK)):
        raise BadValue("out", f"cannot make {out_dir}: {ancestor} is not a writable directory")


def run(config: RunConfig) -> int:
    """Run one experiment: all CSV products plus the manifest, atomically.
    An output directory that cannot be made, and a ``ValueError`` raised
    before the run's first walk, with no path drawn, are config errors
    (:func:`_bad_value`, default key ``model``)."""
    _check_out_dir(config.out_dir)
    start = time.perf_counter()
    with experiments.recorded_walks() as walks:
        try:
            products = config.run(config.threads)
        except ValueError as exc:
            if walks:
                raise
            raise _bad_value(exc, "model") from None
    os.makedirs(config.out_dir, exist_ok=True)
    for name, (header, rows) in products.items():
        _write_csv(config.out_dir, name, header, rows)
    _write_manifest(config, time.perf_counter() - start, products, walks)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _print_report(config: RunConfig) -> None:
    report = validate_model(config.model)
    for name in ("feller_ok", "strong_feller_ok", "p_max", "nu", "m"):
        print(f"{name} = {_fmt(getattr(report, name))}")


def _print_probe(config: RunConfig) -> None:
    rows = config.run(config.threads)["analytics.csv"][1]
    t = rows[-1][1]  # the mean's argument
    for op, argument, value in rows:
        name = {"laplace": "u", "neg_moment": "p"}.get(op)
        at = f"{name}={_fmt(argument)} t={_fmt(t)}" if name else f"t={_fmt(t)}"
        print(f"{op} {at} value={_fmt(value)}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delay-cir",
        description="Delayed CIR simulation and verification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("validate", "print the model's condition report"),
        ("run", "execute the configured experiment"),
        ("probe", "evaluate the analytic oracles at the configured points"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="path to key = value config")
        if name == "run":  # the one command that writes, draws and forks
            cmd.add_argument("--out", help="output directory (overrides config)")
            cmd.add_argument("--seed", type=int, help="seed override")
            cmd.add_argument("--threads", type=int, help="worker processes (overrides config)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        key: str(value)
        for key in ("out", "seed", "threads")
        if (value := getattr(args, key, None)) is not None
    }

    try:
        config = parse_config(args.config, overrides, args.command)
        if args.command == "validate":
            _print_report(config)
        elif args.command == "probe":
            _print_probe(config)
        else:
            run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - one-line diagnostics by contract
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
