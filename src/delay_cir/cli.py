"""Command-line front end: flat key = value configs in, manifest + CSV tables out.

Subcommands: ``validate`` prints the condition report for the configured
model, ``run`` executes one experiment and writes its CSV products, and
``probe`` evaluates the closed-form/quadrature oracles at configured points.
One ``EXPERIMENTS`` table holds each experiment's entry: the config keys it
reads and its plan, which checks the config before any path is simulated and
returns the run that calls the experiment's driver.
Every run leaves a ``manifest.txt`` carrying the fully resolved config, a
sha256 hash of it, the tool version, the wall time, the worker count and the
peak resident set; CSV files are written to a temp file and atomically
renamed, so a failed run leaves no partial tables behind.
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
    check_comparable,
    check_levels,
    check_schemes,
    checkpoint_indices,
    classical_variant,
    comparison_census,
    fit_rate,
    mean_consistency_check,
    modulus_lags,
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
    """A parsed config; the numbers and number lists of keys that the run
    does not read are None."""

    experiment: str
    model: ModelSpec
    n_per_delay: int | None
    n_list: tuple[int, ...] | None
    n_ref: int | None
    n_paths: int | None
    p_list: tuple[float, ...] | None
    seed: int | None
    threads: int | None
    out_dir: str
    schemes: tuple[str, ...]
    checkpoints: tuple[float, ...] | None
    delta_list: tuple[float, ...] | None
    gamma_lower: float | None
    probe_u: tuple[float, ...] | None
    probe_p: float | None
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
        return _checked("initial.points", InitialSegmentSpec.table, points)
    raise BadValue(
        "initial.kind", f"must be constant, table or lognormal, got {kind!r}"
    )


def _checked(key, check, *args):
    """``check(*args)``, its ``ValueError`` re-raised as :class:`BadValue` of ``key``.

    ``key`` may instead map the ``argument`` that the error names to a key.
    """
    try:
        return check(*args)
    except ValueError as exc:
        if isinstance(key, dict):
            key = key[exc.argument]
        raise BadValue(key, str(exc)) from None


# Config keys of the arguments that check_levels names.
_LEVEL_KEYS = {"n_list": "N_list", "n_ref": "N_ref", "p_list": "p_list"}


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

    ``command`` is the subcommand that reads the config.  ``run`` parses the
    keys the configured experiment reads (see ``EXPERIMENTS``) and
    ``threads``, then checks them with the experiment's plan; ``probe``
    parses only the probe keys, and ``validate``, which reads only the model,
    none of them.  A malformed value of a key that is not read is no error.
    """
    items = dict(DEFAULTS)
    items.update(_read_items(path))
    if overrides:
        items.update(overrides)

    experiment = items["experiment"]
    if experiment not in EXPERIMENTS:
        raise UnknownExperiment(experiment)

    a = _positive(items, "a")
    b = _parse_float("b", items["b"])
    sigma = _positive(items, "sigma")
    tau = _positive(items, "tau")
    t0 = _parse_float("t0", items["t0"])
    horizon = _parse_float("horizon", items["horizon"])

    gamma = _build_gamma(items)
    initial = _build_initial(items)
    model = ModelSpec(
        a=a, b=b, sigma=sigma, tau=tau, t0=t0, horizon=horizon, gamma=gamma,
        initial=initial,
    )
    _checked("model", validate_model, model)

    reads = {
        "run": EXPERIMENTS[experiment][0] | {"threads"},
        "probe": EXPERIMENTS["analytics_probe"][0],
        "validate": set(),
    }[command]

    def parsed(key, parse, *scalar):
        """``key``'s value, or None if this run does not read it or it is unset."""
        if key not in reads or items[key] is None:
            return None
        return parse(key, items[key], *scalar)

    n_per_delay = parsed("N", _parse_int)
    if n_per_delay is not None and n_per_delay < 1:
        raise BadValue("N", "must be a positive integer")
    n_list = parsed("N_list", _parse_list, _parse_int)
    n_ref = parsed("N_ref", _parse_int)
    p_list = parsed("p_list", _parse_list, _parse_float)
    n_paths = parsed("n_paths", _parse_int)
    if n_paths is not None and n_paths < 2:
        raise BadValue("n_paths", "need at least two paths")
    seed = parsed("seed", _parse_int)
    if seed is not None and seed < 0:
        raise BadValue("seed", "must be nonnegative")
    threads = parsed("threads", _parse_int)
    if threads is not None and threads < 1:
        raise BadValue("threads", "must be a positive integer")

    # splitting cannot fail; the positivity plan checks the names
    schemes = tuple(
        part.strip() for part in items["scheme"].split(",") if part.strip()
    )
    checkpoints = parsed("checkpoints", _parse_list, _parse_float)
    delta_list = parsed("delta_list", _parse_list, _parse_float)
    gamma_lower = parsed("gamma_lower", _parse_float)
    probe_u = parsed("probe.u_list", _parse_list, _parse_float)
    probe_p = parsed("probe.p", _parse_float)
    probe_t = parsed("probe.t", _parse_float)
    if probe_t is not None and probe_t <= t0:
        raise BadValue("probe.t", "must exceed t0")

    resolved = tuple(
        (key, "" if items[key] is None else str(items[key]))
        for key in sorted(items)
    )
    config = RunConfig(
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
    if command == "run":
        EXPERIMENTS[experiment][1](config)
    return config


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

# An experiment's plan resolves and checks everything the experiment uses,
# defaults included, and raises a BadValue of the key at fault; it returns a
# zero-argument run that calls the driver and returns the CSV products as
# {file name: (header, rows)}.  Plans are pure and cheap: parse_config calls
# one to check a run's config and ``run`` calls it again.  They look the
# drivers and the model helpers up as module globals when they are called.


def _grid(config: RunConfig):
    return _checked("horizon", build_grid, config.model, config.n_per_delay)


def _strong_rate(config: RunConfig):
    p_max = validate_model(config.model).p_max
    n_list, n_ref, p_list = config.n_list, config.n_ref, config.p_list
    _checked(_LEVEL_KEYS, check_levels, n_list, n_ref, p_list, p_max)
    if len(n_list) < 3:
        raise BadValue("N_list", "a rate fit needs at least three levels")
    for n in (*n_list, n_ref):
        _checked("horizon", build_grid, config.model, n)

    def run():
        table = strong_error_study(
            config.model, n_list, n_ref, config.n_paths, p_list, config.seed,
            threads=config.threads,
        )
        errors = [
            (r.delta, r.p, r.grid_error, r.uniform_error, r.std_err, r.n_paths)
            for r in table.rows
        ]
        fits = []
        for p in p_list:
            for variant in ("plain_delta", "delta_log_delta"):
                fit = fit_rate(table, p=p, variant=variant)
                fits.append((p, variant, fit.slope, fit.intercept, fit.r_squared))
        return {
            "errors.csv": ("delta,p,grid_error,uniform_error,std_err,n_paths", errors),
            "ratefit.csv": ("p,variant,slope,intercept,r_squared", fits),
        }

    return run


def _mean_check(config: RunConfig):
    grid = _grid(config)
    checkpoints = config.checkpoints
    if checkpoints is None:
        count = min(5, grid.n_steps)
        ks = {max(1, round(j * grid.n_steps / count)) for j in range(1, count + 1)}
        checkpoints = tuple(float(grid.time(k)) for k in sorted(ks))
    _checked("checkpoints", checkpoint_indices, grid, checkpoints)

    def run():
        rows = mean_consistency_check(
            config.model, grid, config.n_paths, checkpoints, config.seed, config.threads
        )
        rows = [(r.t, r.mc_mean, r.oracle_mean, r.z) for r in rows]
        return {"mean.csv": ("t,mc_mean,oracle_mean,z", rows)}

    return run


def _comparison(config: RunConfig):
    model, grid = config.model, _grid(config)
    gamma_lower = config.gamma_lower
    if gamma_lower is None:  # the infimum of gamma
        gamma_lower = gamma_bounds(model.gamma, model.t0, model.horizon)[0]
    lower = classical_variant(model, gamma_level=gamma_lower)
    _checked("gamma_lower", check_comparable, model, lower, grid)

    def run():
        violations = comparison_census(
            model, lower, grid, config.n_paths, config.seed, config.threads
        )
        return {"comparison.csv": ("n_paths,violations", [(config.n_paths, violations)])}

    return run


def _positivity(config: RunConfig):
    grid = _grid(config)
    _checked("scheme", check_schemes, config.schemes, config.model)

    def run():
        rows = positivity_census(
            config.schemes, config.model, grid, config.n_paths, config.seed,
            config.threads,
        )
        rows = [(r.scheme, r.fraction_nonpositive, r.n_paths) for r in rows]
        return {"census.csv": ("scheme,fraction_nonpositive,n_paths", rows)}

    return run


def _modulus(config: RunConfig):
    grid = _grid(config)
    p = config.p_list[0]
    if p <= 0.0:
        raise BadValue("p_list", "the modulus order, its first entry, must be positive")
    deltas = config.delta_list or tuple(
        grid.delta * lag for lag in (1, 2, 4, 8, 16) if lag <= grid.n_steps
    )
    _checked("delta_list", modulus_lags, grid, deltas)

    def run():
        result = modulus_scaling(
            config.model, grid, config.n_paths, deltas, config.seed, p=p,
            threads=config.threads,
        )
        rows = [(r.delta, result.p, r.modulus) for r in result.rows]
        return {
            "modulus.csv": ("delta,p,modulus", rows),
            "modulusfit.csv": ("p,slope", [(result.p, result.slope)]),
        }

    return run


def _survival(config: RunConfig):
    grid = _grid(config)

    def run():
        est = survival_probability(
            config.model, grid, config.n_paths, config.seed, config.threads
        )
        rows = [(est.value, est.std_err, est.n_paths)]
        return {"survival.csv": ("value,std_err,n_paths", rows)}

    return run


def _analytics_probe(config: RunConfig):
    _require_classical(config.model, "experiment", "analytics_probe ")
    return lambda: {"analytics.csv": ("op,argument,value", _probe_rows(config)[1])}


# name -> (the keys the experiment reads besides the model's, ``out`` and
# ``threads``, its plan)
EXPERIMENTS = {
    "strong_rate": ({"N_list", "N_ref", "p_list", "n_paths", "seed"}, _strong_rate),
    "mean_check": ({"N", "n_paths", "seed", "checkpoints"}, _mean_check),
    "comparison": ({"N", "n_paths", "seed", "gamma_lower"}, _comparison),
    "positivity": ({"N", "n_paths", "seed", "scheme"}, _positivity),
    "modulus": ({"N", "n_paths", "seed", "p_list", "delta_list"}, _modulus),
    "survival": ({"N", "n_paths", "seed"}, _survival),
    "analytics_probe": ({"probe.u_list", "probe.p", "probe.t"}, _analytics_probe),
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


def _write_manifest(config: RunConfig, wall_time: float, products) -> None:
    lines = [
        f"tool = delay-cir {__version__}",
        f"experiment = {config.experiment}",
        f"config_hash = {_config_hash(config)}",
        f"wall_time_seconds = {wall_time:.3f}",
        f"workers = {config.threads}",
        f"peak_rss_mib = {_peak_rss_mib():.1f}",
        f"products = {','.join(products)}",
        "",
        "[config]",
    ]
    lines.extend(f"{k} = {v}" for k, v in config.resolved)
    _write_atomic(
        os.path.join(config.out_dir, "manifest.txt"), "\n".join(lines) + "\n"
    )


def _probe_rows(config: RunConfig):
    """(t, [(op, argument, value)]) of the analytic oracles at the probe points."""
    params = CIRParams.from_model(config.model)
    t = config.probe_t if config.probe_t is not None else config.model.horizon
    rows = [("laplace", u, laplace_transform(params, u, t)) for u in config.probe_u]
    moment = neg_moment(params, config.probe_p, t)
    rows.append(("neg_moment", config.probe_p, moment.value))
    rows.append(("mean", t, classical_mean(params, t)))
    return t, rows


def run(config: RunConfig) -> int:
    """Run one experiment: all CSV products plus the manifest, atomically."""
    start = time.perf_counter()
    os.makedirs(config.out_dir, exist_ok=True)
    products = EXPERIMENTS[config.experiment][1](config)()
    for name, (header, rows) in products.items():
        _write_csv(config.out_dir, name, header, rows)
    _write_manifest(config, time.perf_counter() - start, products)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _print_report(config: RunConfig) -> None:
    report = validate_model(config.model)
    for name in ("feller_ok", "strong_feller_ok", "p_max", "nu", "m"):
        print(f"{name} = {_fmt(getattr(report, name))}")


def _print_probe(config: RunConfig) -> None:
    _require_classical(config.model, "probe")
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
            "--threads", type=int, help="worker processes (overrides config)"
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        key: str(value)
        for key, value in (("out", args.out), ("seed", args.seed), ("threads", args.threads))
        if value is not None
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
