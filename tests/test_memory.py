"""Memory of strong-rate runs, a mean check, a positivity census and a
modulus run, each measured in a fresh interpreter.

Every experiment walks a chunk of at most P = 2048 paths in spans of T
steps and holds its paths in ring windows (``experiments.walk_blocks``).
``experiments.walk_plan`` sizes T, and P where even the shortest span would
not fit, so that its estimate of a chunk stays within a budget of 32 MiB.
Per path the estimate counts 8 B times

* each lane's ring window, max(N + 1, T / r + 1) rows: the rate study's
  reference N_ref with r = 1 and every coarse level N with r = N_ref / N, a
  census's implicit scheme, a modulus run's one lane;
* the span's increments, T rows, and the two largest block sums, T / r each;
* the rows the experiment's fold keeps: the rate study's coarse X of a span
  and a piece of its error fold (T / r_min + 1 + 33 rows), a census's flags
  and the ring window of its one explicit row, max(N + 1, T + 1) rows, a
  modulus run's per-lag maxima and the X of a span with the L nodes before
  it, L the largest lag (2 L + T + 1 rows), a mean check's row per
  checkpoint;
* where a process has helper CPUs, the T rows of the span it draws ahead.

The checks take each estimate from the plan of the same config and compare
the resident high-water mark (``VmHWM``) of a run with that of a process
that has imported the CLI and SciPy's ``special`` module (which every
simulation loads) and parsed the same config.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

from delay_cir import cli, experiments, noise

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc"
)

N_LIST = (8, 16, 32)
N_REF = 1024
PATHS = 2048  # one chunk


def _vm_hwm_mib(tmp_path: Path, text: str, run: bool) -> float:
    """VmHWM of a fresh interpreter that parses ``text`` and runs it or not."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    code = textwrap.dedent(
        """
        import json, sys
        from delay_cir import cli
        cli.parse_config(sys.argv[1])
        if sys.argv[2] == "run":
            code = cli.main(["run", "--config", sys.argv[1], "--out", "out"])
        else:
            import scipy.special  # noqa: F401
            code = 0
        status = open("/proc/self/status").read().split("\\n")
        hwm = next(line for line in status if line.startswith("VmHWM:"))
        print(json.dumps({"code": code, "kib": int(hwm.split()[1])}))
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(cfg), "run" if run else "parse"],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["code"] == 0
    return out["kib"] / 1024.0


def _rises_and_plan(tmp_path, plan_of, base_text, horizons, n_per_delay):
    """VmHWM rise of a run over its parsed config at each horizon, and the
    walk plan, whose span and chunk are the same at each: every horizon (over
    the default delay 0.5, at ``n_per_delay`` finest steps per delay) is
    longer than a span."""
    rises, plans = {}, {}
    for horizon in horizons:
        text = base_text + f"horizon = {horizon}\n"
        rises[horizon] = _vm_hwm_mib(tmp_path, text, run=True) - _vm_hwm_mib(
            tmp_path, text, run=False
        )
        cfg = tmp_path / "plan.cfg"
        cfg.write_text(text, encoding="utf-8")
        config = cli.parse_config(str(cfg))
        plan = plan_of(lambda: config.run(config.threads))
        plans[plan.span, plan.chunks, plan.paths, plan.workers, plan.bytes] = plan
    (plan,) = plans.values()
    assert plan.span < min(horizons) / 0.5 * n_per_delay
    assert plan.bytes <= experiments._WALK_BYTES
    return rises, plan


def _check_rises(rises, plan):
    estimate = plan.bytes / 2**20
    for rise in rises.values():
        assert 0.0 < rise <= 1.5 * estimate, (rises, estimate)
    # twice the horizon, twice the fine path: the rise must not follow it
    low, high = sorted(rises)
    assert abs(rises[high] - rises[low]) < 0.1 * rises[low], rises


def test_strong_rate_memory_is_the_chunk_estimate_whatever_the_horizon(tmp_path, plan_of):
    base_text = (
        f"N_list = {','.join(map(str, N_LIST))}\nN_ref = {N_REF}\n"
        f"n_paths = {PATHS}\nthreads = 1\n"
    )
    # spans of 768 steps, or of 384 where a span is drawn ahead, 1536 and
    # 3072 steps in all
    rises, plan = _rises_and_plan(tmp_path, plan_of, base_text, (0.75, 1.5), N_REF)
    ahead = plan.draw_cpus > 1
    assert (plan.span, plan.paths) == ((384 if ahead else 768), PATHS)  # 30.0 or 30.5 MiB
    _check_rises(rises, plan)


def test_strong_rate_memory_keeps_to_the_budget_where_the_chunk_shrinks(tmp_path, plan_of):
    # at N_ref 4096 even the shortest span, the coarsest ratio of 512 steps,
    # needs 37 KiB per path (41 KiB with a span drawn ahead), 74 MiB for
    # 2048 paths: the chunk shrinks, to three even chunks of 683 paths that
    # fit spans of 1536 steps, or 512 with a span drawn ahead
    text = (
        f"N_list = {','.join(map(str, N_LIST))}\nN_ref = 4096\n"
        f"n_paths = {PATHS}\nthreads = 1\n"
    )
    rises, plan = _rises_and_plan(tmp_path, plan_of, text, (1.5,), 4096)
    assert (plan.span, plan.paths) == ((512 if plan.draw_cpus > 1 else 1536), 683)
    budget = experiments._WALK_BYTES / 2**20
    unshrunk = PATHS * plan.bytes / plan.paths / 2**20
    assert 0.0 < rises[1.5] <= 1.5 * plan.bytes / 2**20 <= 1.5 * budget < unshrunk, (rises, plan)


def test_the_first_span_keeps_to_the_plan_like_every_later_one(tmp_path, monkeypatch):
    # At N_ref 4096 a chunk of 883 paths walks spans of 512 steps in ring
    # windows of 28 MiB; where a span is drawn ahead, a chunk of 800 does.
    # A span's peak is the estimate plus buffers of a few rows and, on one
    # CPU, the draw's transpose block (noise._BLOCK_BYTES), which the plan
    # does not count; the start segment's checks, in the first span only,
    # must add nothing per node of a window.
    import scipy.special  # noqa: F401 - imported by the draws, before tracing

    paths = 800 if experiments._usable_cpus() > 1 else 883
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"N_list = 8,16,32\nN_ref = 4096\nn_paths = {paths}\nthreads = 1\nhorizon = 0.375\n",
        encoding="utf-8",
    )
    config = cli.parse_config(str(cfg))
    peaks = []
    draw = noise.generate

    def traced(*args, **kwargs):
        # the peak since the previous draw: one span's, drawn to marched
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return draw(*args, **kwargs)

    monkeypatch.setattr(noise, "generate", traced)
    with experiments.recorded_walks() as plans:
        tracemalloc.start()
        try:
            config.run(1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    (plan,) = plans
    assert (plan.span, plan.paths) == (512, paths)  # 31.8 MiB
    first, *later = peaks[1:]  # peaks[0] is the set-up before the first draw
    assert len(later) == 5
    assert first <= min(later) + 2**16, peaks
    assert first <= plan.bytes + noise._BLOCK_BYTES + 2**19, (first, plan)


def test_mean_check_memory_counts_the_span_drawn_ahead(tmp_path, plan_of):
    # Two chunks of 2048 paths, each one span of K = 384 steps, on one
    # worker: where the process has a helper CPU, the first chunk's draw
    # fills the second's ahead while it marches, and the estimate counts
    # that span, 384 rows per path, beside the window, the draw and the
    # checkpoints (385 + 384 + 5 rows).
    text = (
        "experiment = mean_check\nN = 64\nb = 0.2\ninitial.kind = lognormal\n"
        "initial.median = 1.0\ninitial.log_sd = 0.2\nhorizon = 3.0\n"
        f"n_paths = {2 * PATHS}\nthreads = 1\n"
    )
    rise = _vm_hwm_mib(tmp_path, text, run=True) - _vm_hwm_mib(tmp_path, text, run=False)
    cfg = tmp_path / "plan.cfg"
    cfg.write_text(text, encoding="utf-8")
    config = cli.parse_config(str(cfg))
    plan = plan_of(lambda: config.run(config.threads))
    assert (plan.span, plan.chunks, plan.paths) == (384, 2, PATHS)
    assert plan.draw_cpus == experiments._usable_cpus()
    assert plan.bytes == 8 * PATHS * (385 + 384 + 5 + 384 * (plan.draw_cpus > 1))
    assert 0.0 < rise <= 1.5 * plan.bytes / 2**20, (rise, plan)


def test_a_run_holds_its_per_path_results_once(tmp_path, monkeypatch):
    # A mean check of 2·10^5 paths at N 8 (K = 24) with twelve checkpoints:
    # its results, twelve values per path (18.3 MiB), outweigh a chunk's
    # walk (plan.bytes, under 1.5 MiB).  map_paths writes each chunk's
    # result into the run's array as it arrives, so it holds the results
    # once, beside one chunk's walk and the draw's buffers; keeping every
    # chunk's result and then joining them would hold them twice.
    import scipy.special  # noqa: F401 - imported by the draws, before tracing

    checkpoints = ",".join(str(0.125 * j) for j in range(1, 13))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"experiment = mean_check\nN = 8\ncheckpoints = {checkpoints}\n"
        "n_paths = 200000\nthreads = 1\n",
        encoding="utf-8",
    )
    config = cli.parse_config(str(cfg))
    walked = []
    inner = experiments.map_paths

    def traced(plan, seed, reduce):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = inner(plan, seed, reduce)
        walked.append((tracemalloc.get_traced_memory()[1] - before, out.nbytes, plan))
        return out

    monkeypatch.setattr(experiments, "map_paths", traced)
    tracemalloc.start()
    try:
        config.run(1)
    finally:
        tracemalloc.stop()
    ((peak, results, plan),) = walked
    assert results == 8 * 12 * 200_000 > 10 * plan.bytes
    assert peak <= results + plan.bytes + 2**20, (peak, results, plan.bytes)


CENSUS_N = 256


def test_census_memory_is_the_window_estimate_whatever_the_horizon(tmp_path, plan_of):
    base_text = (
        "experiment = positivity\nscheme = implicit,truncated,symmetrized\n"
        f"b = 0\nsigma = 1.2\nN = {CENSUS_N}\nn_paths = {PATHS}\nthreads = 1\n"
    )
    # The budget is 32 MiB / (8 B x 2048 paths) = 2048 rows per path.  The
    # implicit window holds max(N + 1, T + 1) = T + 1 rows, the draw T and
    # the fold 1 + (T + 1): the flags and the one explicit row's window.
    # 3 T + 3 <= 2048 rows gives spans of 681 steps, 768 and 1536 in all;
    # with T more for the span drawn ahead, 4 T + 3 <= 2048 gives 511.
    rises, plan = _rises_and_plan(tmp_path, plan_of, base_text, (1.5, 3.0), CENSUS_N)
    assert (plan.span, plan.paths) == ((511 if plan.draw_cpus > 1 else 681), PATHS)  # 32.0 MiB
    _check_rises(rises, plan)


def test_modulus_memory_is_the_window_estimate_whatever_the_horizon(tmp_path, plan_of):
    base_text = f"experiment = modulus\nN = {CENSUS_N}\nn_paths = {PATHS}\nthreads = 1\n"
    # The budget is 32 MiB / (8 B x 2048 paths) = 2048 rows per path.  The
    # window holds max(N + 1, T + 1) = T + 1 rows, the draw T and the fold
    # 2 L + T + 1 for the largest default lag L = 16: 3 T + 34 <= 2048 rows
    # gives spans of 671 steps, 768 and 1536 steps in all; with T more for
    # the span drawn ahead, 4 T + 34 <= 2048 gives 503.
    rises, plan = _rises_and_plan(tmp_path, plan_of, base_text, (1.5, 3.0), CENSUS_N)
    assert (plan.span, plan.paths) == ((503 if plan.draw_cpus > 1 else 671), PATHS)  # 32.0 MiB
    _check_rises(rises, plan)
