"""Workloads and the pieces shared by the benchmark scripts.

Each workload is one ``delay-cir run`` config, driven in-process through the
CLI entry point ``delay_cir.cli.main``.  The program is imported from the
``src`` directory of the checkout this file sits in, never from an installed
copy, so the benchmark always measures the code next to it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from yardstick import Rescaler

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
DEFAULT_SEED = 2024
# Paths of the golden probe: one full 2048-path chunk plus a partial one, so
# chunk boundaries are covered at a fraction of a workload's cost.
PROBE_PATHS = 2112


@dataclass(frozen=True)
class Workload:
    name: str
    config: tuple[str, ...]  # key = value lines, n_paths excluded
    n_paths: int
    threads: int
    # Path-steps per path, from the config: every path is marched once on
    # each grid the experiment uses.  The horizon is three delays long.
    steps_per_path: int
    products: tuple[str, ...]
    # How strongly a run's time follows the host's speed as the yardstick
    # sees it: wall time goes as yardstick time to this power.  Fitted on
    # interleaved runs on a 2-core host; strong_rate_ref spends half its time
    # in large-array gathers that slow less than the yardstick's short ops,
    # mean_check_wide nearly all of it in per-path generator set-up, which
    # slows a little more.
    host_power: float = 1.0

    def config_text(self, n_paths: int) -> str:
        lines = list(self.config)
        if n_paths != 10000:  # the CLI default
            lines.append(f"n_paths = {n_paths}")
        return "".join(line + "\n" for line in lines)


WORKLOADS = {
    w.name: w
    for w in (
        # All defaults but n_paths: N_list 8..128 (3 x 248 coarse steps),
        # N_ref 1024 (3072).  One full 2048-path chunk per run.
        Workload(
            name="strong_rate_ref",
            config=(),
            n_paths=2048,
            threads=1,
            steps_per_path=3 * 1024 + 3 * (8 + 16 + 32 + 64 + 128),
            products=("errors.csv", "ratefit.csv"),
            host_power=0.7,
        ),
        Workload(
            name="mean_check_wide",
            config=(
                "experiment = mean_check",
                "N = 64",
                "b = 0.2",
                "initial.kind = lognormal",
                "initial.median = 1.0",
                "initial.log_sd = 0.2",
            ),
            n_paths=25000,
            threads=1,
            steps_per_path=3 * 64,
            products=("mean.csv",),
            host_power=1.15,
        ),
        # Feller index 2 a gamma / sigma^2 = 1.39: near the boundary.
        Workload(
            name="positivity_boundary",
            config=(
                "experiment = positivity",
                "scheme = implicit,truncated,symmetrized",
                "b = 0",
                "sigma = 1.2",
                "N = 1024",
            ),
            n_paths=2048,
            threads=2,
            steps_per_path=3 * (3 * 1024),
            products=("census.csv",),
        ),
    )
}


def import_program():
    """Import the checkout's delay_cir modules; exit 2 if there are none."""
    if not (SRC / "delay_cir" / "__init__.py").is_file():
        print(f"bench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    from delay_cir import cli, experiments, noise, scheme

    return {"cli": cli, "experiments": experiments, "noise": noise, "scheme": scheme}


def environment(seed: int, n_paths: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "n_paths": n_paths,
    }


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_config(workload: Workload, work: Path, n_paths: int) -> Path:
    config = work / f"{workload.name}-{n_paths}.cfg"
    config.write_text(workload.config_text(n_paths), encoding="utf-8")
    return config


def product_hashes(out_dir: Path) -> dict:
    """sha256 of every CSV product; the manifest carries the wall time."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.glob("*.csv"))
    }


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


@dataclass
class RunResult:
    exit_code: int
    wall_s: float
    cpu_s: float
    hashes: dict


def _run_argv(workload: Workload, config: Path, out: Path, seed: int) -> list[str]:
    return [
        "run",
        "--config", str(config),
        "--out", str(out),
        "--seed", str(seed),
        "--threads", str(workload.threads),
    ]


def run_cli(cli, workload: Workload, work: Path, seed: int, n_paths: int) -> RunResult:
    """One closed-loop ``delay-cir run`` through ``cli.main``, timed."""
    config = write_config(workload, work, n_paths)
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = _run_argv(workload, config, out, seed)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    hashes = product_hashes(out) if out.is_dir() else {}
    return RunResult(code, wall, cpu, hashes)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


# VmHWM is the high-water mark of the child's own address space.  ru_maxrss
# would not do: exec carries over the high-water mark of the address space it
# replaces, which a vfork child shares with this process.
_RUN_CHILD = """
import sys
from delay_cir import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(repr(peak_kib / 1024.0), flush=True)
sys.exit(code)
"""


def run_in_child(workload: Workload, work: Path, seed: int, n_paths: int):
    """One ``delay-cir run`` in a fresh interpreter: (RunResult, peak RSS MiB).

    The peak is the child's resident high-water mark, what a user's
    ``delay-cir run`` process reaches; the wall time includes the
    interpreter's start.
    """
    config = write_config(workload, work, n_paths)
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    # A fixed hash seed: with a random one the peak moves by about 2%
    # between processes of the same run.
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_CHILD, *_run_argv(workload, config, out, seed)],
        env={**_child_env(), "PYTHONHASHSEED": "0"},
        cwd=work,
        capture_output=True,
        text=True,
        timeout=120,
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.split()
    peak_mb = float(lines[-1]) if proc.returncode == 0 and lines else float("nan")
    hashes = product_hashes(out) if out.is_dir() else {}
    return RunResult(proc.returncode, wall, 0.0, hashes), peak_mb


_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import delay_cir.cli as cli
t1 = time.perf_counter()
cli.parse_config(sys.argv[1], {"seed": sys.argv[2], "threads": sys.argv[3]})
t2 = time.perf_counter()
print(repr(t1 - t0), repr(t2 - t1), flush=True)
"""


def measure_setup(workload: Workload, work: Path, seed: int, n_paths: int, repeats: int):
    """Fresh-interpreter set-up: (setup_s, import_s, parse_config_s) medians.

    setup_s runs from the spawn of a new interpreter until it reports that
    ``cli.parse_config`` returned; import_s and parse_config_s are timed
    inside the child around those two calls.  All three are rescaled to the
    yardstick's reference speed, timed around each spawn.
    """
    config = write_config(workload, work, n_paths)
    env = _child_env()
    setup, imports, parses = [], [], []
    rescale = Rescaler()
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _SETUP_CHILD, str(config), str(seed), str(workload.threads)],
            stdout=subprocess.PIPE,
            env=env,
            cwd=work,
            text=True,
        ) as child:
            line = child.stdout.readline()
            setup.append(time.perf_counter() - t0)
            child.stdout.read()
            code = child.wait(timeout=60)
        if code != 0 or not line.strip():
            raise RuntimeError(f"set-up child exited with code {code}")
        import_s, parse_s = (float(x) for x in line.split())
        factor = rescale.factor()
        setup[-1] *= factor
        imports.append(import_s * factor)
        parses.append(parse_s * factor)
    return (
        statistics.median(setup),
        statistics.median(imports),
        statistics.median(parses),
    )
