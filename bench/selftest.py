"""Self-test of the benchmark itself (not part of the program's test suite).

    python3 bench/selftest.py

Runs every workload at a tiny path count: twice traced and once untraced.
It checks that the result line has the contract's keys, that every metric of
``BENCHMARK.json`` is printed by name with its unit, that every count of the
two traced runs repeats exactly, and that the counts agree with the path-steps
the workload's config implies.  Last, it checks that the benchmark exits with
an error, printing no result, in a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from harness import ROOT, WORKLOADS, load_json

TINY_PATHS = 96
COUNT_UNITS = ("count", "bytes-computed")


def _invoke(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "bench/run.py",
            "--workload", workload,
            "--seed", "7",
            "--seconds", "1",
            "--trace", str(trace),
            "--paths", str(TINY_PATHS),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def _result(proc, declared) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared], sorted(metrics)
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), got
        printed = f"bench: {m['name']} = {got['value']!r} {m['unit']}"
        assert printed in lines, f"missing line {printed!r}"
    return metrics


def _check_counts(name: str, first: dict, second: dict) -> None:
    counts = {k: v["value"] for k, v in first.items() if v["unit"] in COUNT_UNITS}
    again = {k: v["value"] for k, v in second.items() if v["unit"] in COUNT_UNITS}
    assert counts == again, f"{name}: counts differ between runs: {counts} vs {again}"

    workload = WORKLOADS[name]
    steps = counts["scheme.implicit_path_steps"] + counts["scheme.baseline_path_steps"]
    assert steps == TINY_PATHS * workload.steps_per_path, (name, steps)
    assert (counts["noise.block_sum_calls"] > 0) == (name == "strong_rate_ref"), counts
    assert (counts["scheme.baseline_path_steps"] > 0) == (name == "positivity_boundary"), counts
    assert (counts["noise.sample_segment_calls"] == TINY_PATHS) == (name == "mean_check_wide"), counts
    assert counts["noise.normals"] >= counts["scheme.implicit_path_steps"] // 2, counts
    assert counts["cli.bytes_written"] > 0, counts


def _check_refuses_without_program() -> None:
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for rel in load_json(ROOT / "BENCHMARK.json")["paths"]:
            shutil.copytree(
                ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__")
            )
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _invoke(next(iter(WORKLOADS)), 0, cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    spec = load_json(ROOT / "BENCHMARK.json")
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for name in WORKLOADS:
        traced = [_result(_invoke(name, 1), spec["per_layer"]) for _ in range(2)]
        _check_counts(name, *traced)
        _result(_invoke(name, 0), spec["end_to_end"])
        print(f"selftest: {name} ok")
    _check_refuses_without_program()
    print("selftest: refuses to run without the program: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
