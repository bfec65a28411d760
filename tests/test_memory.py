"""Memory of a strong-rate run and of a positivity census, each measured in a
fresh interpreter.

A chunk of P paths of the strong-error study holds its paths in windows:
8 B x P x (N_ref + 1 + T + coarse nodes), where T is the study's time block
and each coarse level N keeps N + 1 + T N / N_ref nodes.  The block's
increments and a few small buffers come on top.  A census chunk of all three
schemes holds one implicit window and two explicit scheme rows of N + 1 + T
nodes each, and the block's increments: 8 B x P x (3 (N + 1 + T) + T).  The
checks compare the resident high-water mark (``VmHWM``) of a run with that
of a process that has imported the CLI and SciPy's ``special`` module (which
every simulation loads) and parsed the same config.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from delay_cir import experiments

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


def _estimate_mib() -> float:
    coarsest = N_REF // N_LIST[0]
    block = -(-experiments._BLOCK_STEPS // coarsest) * coarsest
    coarse_nodes = sum(n + 1 + block * n // N_REF for n in N_LIST)
    return 8 * PATHS * (N_REF + 1 + block + coarse_nodes) / 2**20


def test_strong_rate_memory_is_the_chunk_estimate_whatever_the_horizon(tmp_path):
    base_text = (
        f"N_list = {','.join(map(str, N_LIST))}\nN_ref = {N_REF}\n"
        f"n_paths = {PATHS}\nthreads = 1\n"
    )
    rises = {}
    for horizon in (0.75, 1.5):
        text = base_text + f"horizon = {horizon}\n"
        rises[horizon] = _vm_hwm_mib(tmp_path, text, run=True) - _vm_hwm_mib(
            tmp_path, text, run=False
        )
    estimate = _estimate_mib()  # 21.2 MiB with a block of 256 steps
    for rise in rises.values():
        assert 0.0 < rise <= 1.5 * estimate, (rises, estimate)
    # twice the horizon, twice the fine path: the rise must not follow it
    assert abs(rises[1.5] - rises[0.75]) < 0.1 * rises[0.75], rises


CENSUS_N = 256


def test_census_memory_is_the_window_estimate_whatever_the_horizon(tmp_path):
    base_text = (
        "experiment = positivity\nscheme = implicit,truncated,symmetrized\n"
        f"b = 0\nsigma = 1.2\nN = {CENSUS_N}\nn_paths = {PATHS}\nthreads = 1\n"
    )
    rises = {}
    for horizon in (0.75, 1.5):
        text = base_text + f"horizon = {horizon}\n"
        rises[horizon] = _vm_hwm_mib(tmp_path, text, run=True) - _vm_hwm_mib(
            tmp_path, text, run=False
        )
    block = experiments._BLOCK_STEPS
    # 28.0 MiB with a block of 256 steps
    estimate = 8 * PATHS * (3 * (CENSUS_N + 1 + block) + block) / 2**20
    for rise in rises.values():
        assert 0.0 < rise <= 1.5 * estimate, (rises, estimate)
    # 384 and 768 steps: the rise must not follow the horizon
    assert abs(rises[1.5] - rises[0.75]) < 0.1 * rises[0.75], rises
