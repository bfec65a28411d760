"""The benchmark's traced run wraps program functions by module attribute.

``bench/tracer.py`` lists every ``(module, attribute)`` it replaces with a
timing wrapper in ``BOUNDARIES``.  A renamed or deleted function would make
the traced run fail, so these checks pin each name, and every ``__all__``
entry of the library modules, to something that exists.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

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
