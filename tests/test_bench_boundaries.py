"""The benchmark's traced run wraps program functions by module attribute.

``bench/tracer.py`` lists every ``(module, attribute)`` it replaces with a
timing wrapper in ``BOUNDARIES``.  A renamed or deleted function would make
the traced run fail, so these checks pin each name, and every ``__all__``
entry of the library modules, to something that exists.  A rate run wrapped
the same way must still cross the draw, block-sum and march boundaries once
per lane and span, so that the per-layer trace keeps seeing every layer.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import math
from collections import Counter
from pathlib import Path

import pytest

from delay_cir import cli, experiments, noise, scheme

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
MODULES = ("delay_cir", "cir_analytics", "experiments", "model", "noise", "scheme")


def _boundaries():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BOUNDARIES


def _module(name: str):
    return importlib.import_module(name if name == "delay_cir" else f"delay_cir.{name}")


def test_every_traced_boundary_resolves():
    for module_key, attr, *_ in _boundaries():
        target = getattr(_module(module_key), attr, None)
        assert callable(target), f"{module_key}.{attr} is not a callable attribute"
        if module_key == "scheme":
            # the path-step counters read the increments, positional argument 2
            params = list(inspect.signature(target).parameters)
            assert params[2] == "increments", (attr, params)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_exists(name):
    module = _module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_a_rate_run_crosses_each_traced_layer_once_per_lane_and_span(monkeypatch, tmp_path):
    calls = Counter()
    for module, name in ((noise, "generate"), (noise, "block_sum"), (scheme, "simulate_y_paths")):
        inner = getattr(module, name)

        def counting(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        # replaced where experiments looks it up, as the tracer does
        monkeypatch.setattr(module, name, counting)
    # 1536 fine steps, 300 paths in one chunk; a budget of 1700 rows of 8 B
    # per path makes the walk take several spans
    monkeypatch.setattr(experiments, "_WALK_BYTES", 8 * 300 * 1700)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N_list = 8,16,32\nhorizon = 0.75\nn_paths = 300\n", encoding="utf-8")
    with experiments.recorded_walks() as plans:
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    (plan,) = plans
    spans = math.ceil(1536 / plan.span)
    assert plan.paths == 300 and spans > 1
    # the reference and three coarse lanes, of which the coarse ones sum
    assert calls == {"generate": spans, "simulate_y_paths": 4 * spans, "block_sum": 3 * spans}
