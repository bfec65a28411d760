"""Command-line front end: flat key = value configs in, manifest + CSV tables out.

Subcommands: ``validate`` prints the condition report for the configured
model, ``run`` executes one experiment and writes its CSV products, and
``probe`` evaluates the closed-form/quadrature oracles at configured points.
Every run leaves a ``manifest.txt`` carrying the fully resolved config, a
sha256 hash of it, the tool version, and the wall time; CSV files are written
to a temp file and atomically renamed, so a failed run leaves no partial
tables behind.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field

from . import __version__
from .cir_analytics import CIRParams, classical_mean, laplace_transform, neg_moment
from .experiments import (
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
    GammaSpec,
    InitialSegmentSpec,
    ModelSpec,
    build_grid,
    gamma_bounds,
    validate as validate_model,
)


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


EXPERIMENTS = (
    "strong_rate",
    "mean_check",
    "comparison",
    "positivity",
    "modulus",
    "survival",
    "analytics_probe",
)

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
    experiment: str
    model: ModelSpec
    n_per_delay: int
    n_list: tuple[int, ...]
    n_ref: int
    n_paths: int
    p_list: tuple[float, ...]
    seed: int
    threads: int
    out_dir: str
    schemes: tuple[str, ...]
    checkpoints: tuple[float, ...] | None
    delta_list: tuple[float, ...] | None
    gamma_lower: float | None
    probe_u: tuple[float, ...]
    probe_p: float
    probe_t: float | None
    resolved: tuple[tuple[str, str], ...] = field(repr=False, default=())


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


def _positive(items: dict[str, str], key: str) -> float:
    value = _parse_float(key, _require(items, key))
    if value <= 0.0:
        raise BadValue(key, "must be positive")
    return value


def _build_gamma(items: dict[str, str]) -> GammaSpec:
    kind = items["gamma.kind"]
    if kind == "constant":
        return GammaSpec.constant(_positive(items, "gamma.level"))
    level = _parse_float("gamma.level", _require(items, "gamma.level"))
    if kind == "affine":
        slope = _parse_float("gamma.slope", _require(items, "gamma.slope"))
        return GammaSpec.affine(level, slope)
    if kind == "sinusoid":
        amplitude = _parse_float("gamma.amplitude", _require(items, "gamma.amplitude"))
        omega = _parse_float("gamma.omega", _require(items, "gamma.omega"))
        return GammaSpec.sinusoid(level, amplitude, omega)
    raise BadValue("gamma.kind", f"must be constant, affine or sinusoid, got {kind!r}")


def _build_initial(items: dict[str, str]) -> InitialSegmentSpec:
    kind = items["initial.kind"]
    if kind == "constant":
        return InitialSegmentSpec.constant(_positive(items, "initial.level"))
    if kind == "lognormal":
        median = _positive(items, "initial.median")
        log_sd = _parse_float("initial.log_sd", _require(items, "initial.log_sd"))
        if log_sd < 0.0:
            raise BadValue("initial.log_sd", "must be nonnegative")
        return InitialSegmentSpec.lognormal(median, log_sd)
    if kind == "table":
        raw = _require(items, "initial.points")
        points = []
        for chunk in raw.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            t_raw, sep, v_raw = chunk.partition(":")
            if not sep:
                raise BadValue("initial.points", f"expected 't:value', got {chunk!r}")
            points.append(
                (
                    _parse_float("initial.points", t_raw.strip()),
                    _parse_float("initial.points", v_raw.strip()),
                )
            )
        if not points:
            raise BadValue("initial.points", "empty table")
        return InitialSegmentSpec.table(points)
    raise BadValue(
        "initial.kind", f"must be constant, table or lognormal, got {kind!r}"
    )


def parse_config(path: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """Read, resolve against defaults, validate, and freeze a run config."""
    items = dict(DEFAULTS)
    items.update(_read_items(path))
    if overrides:
        items.update(overrides)

    experiment = items["experiment"]
    if experiment not in EXPERIMENTS:
        raise UnknownExperiment(experiment)

    a = _positive(items, "a")
    b = _parse_float("b", items["b"])
    if b < 0.0:
        raise BadValue("b", "must be nonnegative")
    sigma = _positive(items, "sigma")
    tau = _positive(items, "tau")
    t0 = _parse_float("t0", items["t0"])
    horizon = _parse_float("horizon", items["horizon"])
    if horizon <= t0:
        raise BadValue("horizon", "must exceed t0")

    gamma = _build_gamma(items)
    initial = _build_initial(items)
    try:
        model = ModelSpec(
            a=a,
            b=b,
            sigma=sigma,
            tau=tau,
            t0=t0,
            horizon=horizon,
            gamma=gamma,
            initial=initial,
        )
        validate_model(model)
    except ConfigError:
        raise
    except ValueError as exc:
        raise BadValue("model", str(exc)) from None

    n_per_delay = _parse_int("N", items["N"])
    if n_per_delay < 1:
        raise BadValue("N", "must be a positive integer")
    n_list = _parse_list("N_list", items["N_list"], _parse_int)
    if any(n < 1 for n in n_list):
        raise BadValue("N_list", "entries must be positive integers")
    for small, big in zip(n_list, n_list[1:]):
        if big <= small or big % small:
            raise BadValue("N_list", "must increase, each entry dividing the next")
    n_ref = _parse_int("N_ref", items["N_ref"])
    if n_ref <= n_list[-1] or n_ref % n_list[-1]:
        raise BadValue("N_ref", "must be a proper multiple of max(N_list)")
    n_paths = _parse_int("n_paths", items["n_paths"])
    if n_paths < 2:
        raise BadValue("n_paths", "need at least two paths")
    p_list = _parse_list("p_list", items["p_list"], _parse_float)
    if any(p <= 0.0 for p in p_list):
        raise BadValue("p_list", "entries must be positive")
    seed = _parse_int("seed", items["seed"])
    if seed < 0:
        raise BadValue("seed", "must be nonnegative")
    threads = _parse_int("threads", items["threads"])
    if threads < 1:
        raise BadValue("threads", "must be a positive integer")

    schemes = tuple(
        part.strip() for part in items["scheme"].split(",") if part.strip()
    )
    for name in schemes:
        if name not in ("implicit", "truncated", "symmetrized"):
            raise BadValue("scheme", f"unknown scheme {name!r}")
    if not schemes:
        raise BadValue("scheme", "empty list")

    def optional(key, parse, *scalar):
        return None if items[key] is None else parse(key, items[key], *scalar)

    checkpoints = optional("checkpoints", _parse_list, _parse_float)
    delta_list = optional("delta_list", _parse_list, _parse_float)
    gamma_lower = optional("gamma_lower", _parse_float)
    probe_u = _parse_list("probe.u_list", items["probe.u_list"], _parse_float)
    probe_p = _parse_float("probe.p", items["probe.p"])
    probe_t = optional("probe.t", _parse_float)
    if experiment == "analytics_probe" and (
        b != 0.0 or gamma.kind != "constant" or initial.is_random
    ):
        # the analytic oracles address the classical model only
        raise BadValue(
            "experiment",
            "analytics_probe needs b = 0, constant gamma and a deterministic start",
        )

    resolved = tuple(
        (key, "" if items[key] is None else str(items[key]))
        for key in sorted(items)
    )
    return RunConfig(
        experiment=experiment,
        model=model,
        n_per_delay=n_per_delay,
        n_list=n_list,
        n_ref=n_ref,
        n_paths=n_paths,
        p_list=p_list,
        seed=seed,
        threads=threads,
        out_dir=items["out"],
        schemes=schemes,
        checkpoints=checkpoints,
        delta_list=delta_list,
        gamma_lower=gamma_lower,
        probe_u=probe_u,
        probe_p=probe_p,
        probe_t=probe_t,
        resolved=resolved,
    )


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


def _write_manifest(config: RunConfig, wall_time: float, products) -> None:
    lines = [
        f"tool = delay-cir {__version__}",
        f"experiment = {config.experiment}",
        f"config_hash = {_config_hash(config)}",
        f"wall_time_seconds = {wall_time:.3f}",
        f"products = {','.join(products)}",
        "",
        "[config]",
    ]
    lines.extend(f"{k} = {v}" for k, v in config.resolved)
    _write_atomic(
        os.path.join(config.out_dir, "manifest.txt"), "\n".join(lines) + "\n"
    )


def _default_checkpoints(grid) -> tuple[float, ...]:
    count = min(5, grid.n_steps)
    ks = sorted({max(1, round(j * grid.n_steps / count)) for j in range(1, count + 1)})
    return tuple(float(grid.time(k)) for k in ks)


def _run_experiment(config: RunConfig) -> list[str]:
    """Execute the configured experiment; returns the CSV file names written."""
    model, seed, n_paths = config.model, config.seed, config.n_paths
    out = config.out_dir

    if config.experiment == "strong_rate":
        table = strong_error_study(
            model,
            config.n_list,
            config.n_ref,
            n_paths,
            config.p_list,
            seed,
            threads=config.threads,
        )
        _write_csv(
            out,
            "errors.csv",
            "delta,p,grid_error,uniform_error,std_err,n_paths",
            [
                (r.delta, r.p, r.grid_error, r.uniform_error, r.std_err, r.n_paths)
                for r in table.rows
            ],
        )
        fits = []
        for p in config.p_list:
            for variant in ("plain_delta", "delta_log_delta"):
                fit = fit_rate(table, p=p, variant=variant)
                fits.append((p, variant, fit.slope, fit.intercept, fit.r_squared))
        _write_csv(out, "ratefit.csv", "p,variant,slope,intercept,r_squared", fits)
        return ["errors.csv", "ratefit.csv"]

    grid = build_grid(model, config.n_per_delay)

    if config.experiment == "mean_check":
        checkpoints = config.checkpoints or _default_checkpoints(grid)
        rows = mean_consistency_check(
            model, grid, n_paths, checkpoints, seed, config.threads
        )
        _write_csv(
            out,
            "mean.csv",
            "t,mc_mean,oracle_mean,z",
            [(r.t, r.mc_mean, r.oracle_mean, r.z) for r in rows],
        )
        return ["mean.csv"]

    if config.experiment == "comparison":
        level = config.gamma_lower
        if level is None:
            level = gamma_bounds(model.gamma, model.t0, model.horizon)[0]
        lower = classical_variant(model, gamma_level=level)
        violations = comparison_census(
            model, lower, grid, n_paths, seed, config.threads
        )
        _write_csv(out, "comparison.csv", "n_paths,violations", [(n_paths, violations)])
        return ["comparison.csv"]

    if config.experiment == "positivity":
        rows = positivity_census(
            config.schemes, model, grid, n_paths, seed, config.threads
        )
        _write_csv(
            out,
            "census.csv",
            "scheme,fraction_nonpositive,n_paths",
            [(r.scheme, r.fraction_nonpositive, r.n_paths) for r in rows],
        )
        return ["census.csv"]

    if config.experiment == "modulus":
        deltas = config.delta_list
        if deltas is None:
            deltas = tuple(
                grid.delta * lag for lag in (1, 2, 4, 8, 16) if lag <= grid.n_steps
            )
        result = modulus_scaling(
            model, grid, n_paths, deltas, seed, p=config.p_list[0],
            threads=config.threads,
        )
        _write_csv(
            out,
            "modulus.csv",
            "delta,p,modulus",
            [(r.delta, result.p, r.modulus) for r in result.rows],
        )
        _write_csv(out, "modulusfit.csv", "p,slope", [(result.p, result.slope)])
        return ["modulus.csv", "modulusfit.csv"]

    if config.experiment == "survival":
        est = survival_probability(model, grid, n_paths, seed, config.threads)
        _write_csv(
            out,
            "survival.csv",
            "value,std_err,n_paths",
            [(est.value, est.std_err, est.n_paths)],
        )
        return ["survival.csv"]

    # analytics_probe
    _write_csv(out, "analytics.csv", "op,argument,value", _probe_rows(config)[1])
    return ["analytics.csv"]


def _probe_rows(config: RunConfig):
    """(t, [(op, argument, value)]) of the analytic oracles at the probe points."""
    model = config.model
    params = CIRParams(
        a=model.a,
        gamma=model.gamma.params[0],
        sigma=model.sigma,
        x0=float(model.initial.mean_at(model.t0)),
        t0=model.t0,
    )
    t = config.probe_t if config.probe_t is not None else model.horizon
    rows = [("laplace", u, laplace_transform(params, u, t)) for u in config.probe_u]
    moment = neg_moment(params, config.probe_p, t)
    rows.append(("neg_moment", config.probe_p, moment.value))
    rows.append(("mean", t, classical_mean(params, t)))
    return t, rows


def run(config: RunConfig) -> int:
    """Run one experiment: all CSV products plus the manifest, atomically."""
    start = time.perf_counter()
    os.makedirs(config.out_dir, exist_ok=True)
    products = _run_experiment(config)
    _write_manifest(config, time.perf_counter() - start, products)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _print_report(config: RunConfig) -> None:
    report = validate_model(config.model)
    print(f"feller_ok = {report.feller_ok}")
    print(f"strong_feller_ok = {report.strong_feller_ok}")
    print(f"p_max = {_fmt(report.p_max)}")
    print(f"nu = {_fmt(report.nu)}")
    print(f"m = {report.m}")


def _print_probe(config: RunConfig) -> None:
    model = config.model
    if model.b != 0.0 or model.gamma.kind != "constant" or model.initial.is_random:
        raise BadValue(
            "probe", "needs b = 0, constant gamma and a deterministic start"
        )
    t, rows = _probe_rows(config)
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
        cmd.add_argument("--out", help="output directory (overrides config)")
        cmd.add_argument("--seed", type=int, help="seed override")
        cmd.add_argument(
            "--threads",
            type=int,
            help="worker threads (default: DELAY_CIR_THREADS or config)",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides: dict[str, str] = {}
    if args.out is not None:
        overrides["out"] = args.out
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.threads is not None:
        overrides["threads"] = str(args.threads)
    elif os.environ.get("DELAY_CIR_THREADS"):
        overrides["threads"] = os.environ["DELAY_CIR_THREADS"]

    try:
        config = parse_config(args.config, overrides)
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
