"""Which parts of SciPy a process loads, each checked in a fresh interpreter.

``delay_cir`` imports SciPy where it is used: ``scipy.special`` on the first
Gaussian draw and on the first negative moment that needs ``hyp1f1``.
Parsing a config, validating a model and every config error therefore load
no SciPy, and a simulation or the analytic probe loads only
``scipy.special``: no ``scipy.integrate``, nor the ``optimize``, ``sparse``
and ``linalg`` that it would bring.  The analytic oracles load none of the
simulation modules either.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_PRELUDE = """
import json, sys

def loaded():
    return {name: name in sys.modules for name in ("scipy.special", "scipy.integrate")}
"""


def _fresh(code: str, *args: str, cwd: Path) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(code), *args],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _config(tmp_path: Path, text: str) -> str:
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_import_and_parse_load_no_scipy(tmp_path):
    cfg = _config(tmp_path, "experiment = mean_check\nn_paths = 64\n")
    out = _fresh(
        """
        import delay_cir.cli as cli
        cli.parse_config(sys.argv[1])
        code = cli.main(["validate", "--config", sys.argv[1]])
        bad = cli.main(["run", "--config", sys.argv[1], "--seed", "-1"])
        print(json.dumps({**loaded(), "codes": [code, bad]}))
        """,
        cfg,
        cwd=tmp_path,
    )
    assert out == {"scipy.special": False, "scipy.integrate": False, "codes": [0, 2]}


def test_import_parse_and_validate_load_no_pool_module(tmp_path):
    # the draws' helpers import their thread pool only when they are made,
    # and map_paths its process pool only when it forks
    cfg = _config(tmp_path, "experiment = mean_check\nn_paths = 64\n")
    out = _fresh(
        """
        import delay_cir.cli as cli
        cli.parse_config(sys.argv[1])
        code = cli.main(["validate", "--config", sys.argv[1]])
        names = ("concurrent.futures", "multiprocessing")
        print(json.dumps({"code": code, **{name: name in sys.modules for name in names}}))
        """,
        cfg,
        cwd=tmp_path,
    )
    assert out == {"code": 0, "concurrent.futures": False, "multiprocessing": False}


def test_oracles_load_neither_scheme_noise_nor_experiments(tmp_path):
    out = _fresh(
        """
        import delay_cir.cir_analytics
        names = ("delay_cir.scheme", "delay_cir.noise", "delay_cir.experiments")
        print(json.dumps({name: name in sys.modules for name in names}))
        """,
        cwd=tmp_path,
    )
    assert out == {
        "delay_cir.scheme": False, "delay_cir.noise": False, "delay_cir.experiments": False
    }


def test_plan_time_config_errors_load_no_scipy(tmp_path):
    texts = (
        "horizon = 1.3\n",
        "experiment = mean_check\ncheckpoints = 5.0\n",
        "experiment = positivity\nscheme = symmetrized\n",
        "experiment = comparison\ngamma_lower = 1.5\n",
        # the oracles check their arguments before SciPy loads
        "experiment = analytics_probe\nb = 0\nprobe.u_list = 1,-0.5\n",
        "experiment = analytics_probe\nb = 0\nprobe.p = 0\n",
        "experiment = analytics_probe\nb = 0\nsigma = 0.01\nprobe.p = 60\n",
        "experiment = analytics_probe\nb = 0\ninitial.level = 1e300\nprobe.p = 2\n",
        # the strict Feller condition of the strong study fails
        "sigma = 1.5\np_list = 0.1\nN_list = 2,4,8\nN_ref = 16\n",
        # sigma^2 >= 4 a inf(gamma), outside the implicit scheme's domain
        "experiment = mean_check\nsigma = 3\nb = 0\n",
        "experiment = positivity\nsigma = 3\nb = 0\n",
        # the run-size and start rules that the library owns
        "n_paths = 1\n",
        "threads = 0\n",
        "experiment = survival\nseed = -1\n",
        "initial.kind = lognormal\ninitial.median = 1\ninitial.log_sd = -0.5\n",
        "experiment = mean_check\nN = 4\ninitial.kind = lognormal\n"
        "initial.median = 1e-300\ninitial.log_sd = 37\n",
        "experiment = analytics_probe\nb = 0\nprobe.t = -1\n",
    )
    cfgs = []
    for i, text in enumerate(texts):
        path = tmp_path / f"bad{i}.cfg"
        path.write_text(text, encoding="utf-8")
        cfgs.append(str(path))
    out = _fresh(
        """
        import delay_cir.cli as cli
        codes = [cli.main(["run", "--config", cfg]) for cfg in sys.argv[1:]]
        print(json.dumps({**loaded(), "codes": codes}))
        """,
        *cfgs,
        cwd=tmp_path,
    )
    assert out == {"scipy.special": False, "scipy.integrate": False, "codes": [2] * len(texts)}


def test_simulation_loads_special_but_not_integrate(tmp_path):
    # 2100 paths on 2 workers are two chunks of 1050 paths, one per forked
    # worker process; the parent imports scipy.special before the fork, so
    # it is loaded in the process that reports here
    cfg = _config(
        tmp_path,
        "N_list = 4,8,16\nN_ref = 32\nn_paths = 2100\nthreads = 2\nseed = 5\n",
    )
    out = _fresh(
        """
        from delay_cir import cli
        code = cli.main(["run", "--config", sys.argv[1], "--out", "out"])
        print(json.dumps({**loaded(), "code": code}))
        """,
        cfg,
        cwd=tmp_path,
    )
    assert out == {"scipy.special": True, "scipy.integrate": False, "code": 0}
    assert (tmp_path / "out" / "errors.csv").is_file()


def test_first_draws_on_four_threads_at_once(tmp_path):
    # map_paths runs chunks in worker processes, not threads; a library
    # caller may still draw from several threads, and the first draws of a
    # process race to import ndtri
    out = _fresh(
        """
        import threading
        import numpy as np
        from delay_cir import noise

        sys.setswitchinterval(1e-6)
        start = threading.Barrier(4, timeout=60)
        results = [None] * 4

        def draw(i):
            start.wait()
            results[i] = noise._standard_normals(7, range(0, 300), 0, 50)

        workers = [threading.Thread(target=draw, args=(i,)) for i in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        done = not any(w.is_alive() for w in workers)
        again = noise._standard_normals(7, range(0, 300), 0, 50)
        same = all(np.array_equal(r.view(np.uint64), again.view(np.uint64)) for r in results)
        print(json.dumps({**loaded(), "done": done, "same": same}))
        """,
        cwd=tmp_path,
    )
    assert out == {
        "scipy.special": True, "scipy.integrate": False, "done": True, "same": True
    }


@pytest.mark.parametrize("command", ["probe", "run"])
def test_analytics_probe_loads_special_but_not_integrate(tmp_path, command):
    # the default moment (g = 32, p = 1/2, z = 9.2) is past the reach of the
    # large-z series, so hyp1f1 evaluates it
    cfg = _config(tmp_path, "experiment = analytics_probe\nb = 0\n")
    out = _fresh(
        """
        from delay_cir import cli
        flags = ["--out", "out"] if sys.argv[2] == "run" else []
        code = cli.main([sys.argv[2], "--config", sys.argv[1], *flags])
        heavy = ("scipy.optimize", "scipy.sparse", "scipy.linalg")
        print(json.dumps({**loaded(), "heavy": [n for n in heavy if n in sys.modules],
                          "code": code}))
        """,
        cfg,
        command,
        cwd=tmp_path,
    )
    assert out == {"scipy.special": True, "scipy.integrate": False, "heavy": [], "code": 0}
    if command == "run":
        rows = (tmp_path / "out" / "analytics.csv").read_text().splitlines()
        assert rows[0] == "op,argument,value"
        assert any(row.startswith("neg_moment,") for row in rows)


def test_ndtri_shim_matches_scipy_bit_for_bit(tmp_path):
    out = _fresh(
        """
        import numpy as np
        from delay_cir import noise
        before = loaded()["scipy.special"]
        from scipy.special import ndtri

        # both tails, down to the subnormal range and the infinite ends 0 and 1
        tails = [2.0**-54, 1e-300, 5e-324, 1e-12, 0.0, 1.0, 1.0 - 2.0**-53, 1.0 - 1e-12]
        u = np.concatenate([tails, np.random.default_rng(3).random(4096)])
        expect = ndtri(u).view(np.uint64)
        fresh = noise.ndtri(u).view(np.uint64)
        inplace = u.copy()
        noise.ndtri(inplace, out=inplace)
        print(json.dumps({
            "before": before,
            "equal": bool(np.array_equal(fresh, expect)),
            "inplace": bool(np.array_equal(inplace.view(np.uint64), expect)),
        }))
        """,
        cwd=tmp_path,
    )
    assert out == {"before": False, "equal": True, "inplace": True}
