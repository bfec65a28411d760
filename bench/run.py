"""delay-cir benchmark: one workload, closed loop, end-to-end or traced.

    python3 bench/run.py --workload strong_rate_ref --seed 2024 --seconds 27 --trace 0

Runs from the root of a checkout and imports the program from its ``src``
directory.  One invocation:

1. spawns fresh interpreters that import ``delay_cir.cli`` and parse the
   workload's config (set-up time);
2. runs the workload once at the default seed on ``PROBE_PATHS`` paths and
   compares every CSV product with the golden sha256 recorded in
   ``golden.json`` (also the warm-up);
3. runs the workload at ``--seed`` back to back, one ``delay-cir run`` at a
   time, until ``--seconds`` would be exceeded (at least one run), with the
   host-speed yardstick of ``yardstick.py`` timed before the first run and
   after each.  Products must match the golden hashes when the seed and size
   are the recorded ones, and must be byte-identical across the runs
   otherwise;
4. leaves room for one more run: with ``--trace 0`` a fresh-interpreter
   run for the peak RSS, with ``--trace 1`` a run made with the layer tracer
   installed (see ``tracer.py``); untraced runs never carry a wrapper.

Human-readable lines go first; the last line of standard output is the JSON
result with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``), named as in ``BENCHMARK.json``.  Times are rescaled to the
yardstick's reference speed (``yardstick.py`` says why); the raw wall time is
printed beside them and reported as ``host.wall_s`` by the traced run.  End
to end:

* ``wall_ref_s``: median over the runs of the time spent in ``cli.main``,
  i.e. ``parse_config`` (well under a millisecond once imported) plus
  ``cli.run`` up to the written manifest, each run rescaled by the yardstick
  timed on either side of it (to the workload's ``host_power``);
* ``path_steps_per_s``: the path-steps the config implies (paths times the
  steps of every grid marched) over ``wall_ref_s``;
* ``setup_s``: median over fresh interpreters of spawn to the return of
  ``cli.parse_config``, rescaled the same way;
* ``peak_rss_mb``: resident high-water mark of a fresh interpreter that makes
  one run (timed runs share this process, whose high-water mark would carry
  the probe's and the yardstick's).

A failed run (non-zero exit or different CSV bytes) is counted in
``failed``; ``failed / attempted`` is printed as ``failed_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

from harness import (
    DEFAULT_SEED,
    GOLDEN_PATH,
    ROOT,
    WORKLOADS,
    environment,
    import_program,
    load_json,
    measure_setup,
    run_cli,
    run_in_child,
)
from tracer import Tracer
from yardstick import REFERENCE_S, Rescaler

SETUP_REPEATS = 5


def _layer_values(tracer: Tracer) -> dict:
    t, c = tracer.total_s, tracer.calls
    n = tracer.counts
    return {
        "experiments.self_s": tracer.self_s["experiments"],
        "noise.block_sum_s": t["noise.block_sum"],
        "noise.block_sum_calls": c["noise.block_sum"],
        "noise.block_sum_bytes": n["noise.block_sum.bytes"],
        "scheme.implicit_s": t["scheme.implicit"],
        "scheme.implicit_calls": c["scheme.implicit"],
        "scheme.implicit_path_steps": n["scheme.implicit.path_steps"],
        "scheme.baseline_s": t["scheme.baseline"],
        "scheme.baseline_path_steps": n["scheme.baseline.path_steps"],
        "noise.generate_s": t["noise.generate"],
        "noise.generate_calls": c["noise.generate"],
        "noise.normals": n["noise.normals"],
        "noise.ndtri_s": t["noise.ndtri"],
        "noise.sample_segment_s": t["noise.sample_segment"],
        "noise.sample_segment_calls": c["noise.sample_segment"],
        "cir_analytics.mean_curve_s": t["cir_analytics"],
        "cir_analytics.calls": c["cir_analytics"],
        "model.time_s": t["model"],
        "model.calls": c["model"],
        "cli.write_s": t["cli.write"],
        "cli.bytes_written": n["cli.write.bytes"],
    }


def _problem(result, expected, products) -> str | None:
    if result.exit_code != 0:
        return f"exit code {result.exit_code}"
    if sorted(result.hashes) != sorted(products):
        return f"products {sorted(result.hashes)}, expected {sorted(products)}"
    if expected is not None and result.hashes != expected:
        bad = sorted(k for k in expected if result.hashes.get(k) != expected[k])
        return f"bytes differ in {', '.join(bad)}"
    return None


def bench(modules, workload, seed, seconds, trace, n_paths, work):
    cli = modules["cli"]
    golden = load_json(GOLDEN_PATH)[workload.name]
    declared = load_json(ROOT / "BENCHMARK.json")["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    env = environment(seed, {workload.name: n_paths})
    print(f"bench: env {json.dumps(env, sort_keys=True)}")

    setup_s, import_s, parse_s = measure_setup(workload, work, seed, n_paths, SETUP_REPEATS)

    attempted = failed = 0

    def account(label, result, expected):
        nonlocal attempted, failed
        attempted += 1
        problem = _problem(result, expected, workload.products)
        status = "ok" if problem is None else f"FAILED: {problem}"
        print(f"bench: {label} wall_s={result.wall_s:.4f} {status}")
        if problem is not None:
            failed += 1

    probe = golden["probe"]
    account(
        f"probe seed={probe['seed']} n_paths={probe['n_paths']}",
        run_cli(cli, workload, work, probe["seed"], probe["n_paths"]),
        probe["sha256"],
    )

    full = golden["full"]
    expected = (
        full["sha256"] if (seed, n_paths) == (full["seed"], full["n_paths"]) else None
    )
    runs, factors = [], []
    reserve = 2
    rescale = Rescaler(workload.host_power)
    start = time.perf_counter()
    while True:
        result = run_cli(cli, workload, work, seed, n_paths)
        factors.append(rescale.factor())
        account(f"run {len(runs) + 1} ref_s={result.wall_s * factors[-1]:.4f}", result, expected)
        if expected is None and result.exit_code == 0:
            expected = result.hashes
        runs.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + reserve * (result.wall_s + rescale.samples[-1]) > seconds:
            break

    wall_s = statistics.median(r.wall_s for r in runs)
    wall_ref_s = statistics.median(r.wall_s * f for r, f in zip(runs, factors))
    print(
        f"bench: raw wall_s median {wall_s!r} s, yardstick median "
        f"{statistics.median(rescale.samples)!r} s (reference {REFERENCE_S} s)"
    )
    if not trace:
        child, peak_rss_mb = run_in_child(workload, work, seed, n_paths)
        account("fresh-process run", child, expected)
        metrics = {
            "wall_ref_s": wall_ref_s,
            "path_steps_per_s": n_paths * workload.steps_per_path / wall_ref_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        tracer = Tracer(modules)
        with tracer.installed():
            traced = run_cli(cli, workload, work, seed, n_paths)
        traced_ref_s = traced.wall_s * rescale.factor()
        account("traced run", traced, expected)
        metrics = _layer_values(tracer)
        metrics["cli.import_s"] = import_s
        metrics["cli.parse_config_s"] = parse_s
        metrics["cli.cpu_per_wall"] = statistics.median(r.cpu_s / r.wall_s for r in runs)
        metrics["trace.overhead_frac"] = traced_ref_s / wall_ref_s - 1.0
        metrics["host.wall_s"] = wall_s
        metrics["host.yardstick_s"] = statistics.median(rescale.samples)

    print(
        f"bench: {workload.name} runs={len(runs)} attempted={attempted} "
        f"failed={failed} failed_frac={failed / attempted!r}"
    )
    for name, unit in units.items():
        print(f"bench: {name} = {metrics[name]!r} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--paths", type=int, help="override the workload's path count (self-test)"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    modules = import_program()
    workload = WORKLOADS[args.workload]
    n_paths = args.paths or workload.n_paths
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = bench(modules, workload, args.seed, args.seconds, args.trace, n_paths, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
