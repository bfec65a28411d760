"""Shared test settings and fixtures.

Property tests draw their examples from a fixed derandomised stream, a
bounded number per test and without a per-example deadline, so every run of
the suite checks the same cases and takes about the same time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from delay_cir import experiments, noise
from delay_cir.model import InitialSegmentSpec, TimeGrid

settings.register_profile(
    "repeatable", derandomize=True, max_examples=40, deadline=None, database=None
)
settings.load_profile("repeatable")


def one_lane_plan(model, grid, n_paths, threads=1):
    """The :class:`~delay_cir.experiments.WalkPlan` of a reference reduction
    that marches ``model`` on ``grid`` over whole horizons through
    ``experiments.map_paths``: one lane, and no fold rows."""
    lanes = [(model, grid, 1)]
    return experiments.walk_plan(model, grid, lanes, n_paths, threads, fold_rows=lambda span: 0)


def level_normals(seed: int, paths: range) -> np.ndarray:
    """The standard normals behind the lognormal levels that
    :func:`~delay_cir.noise.sample_segment` draws for ``paths``, one per
    path, as its ``ndtri`` returns them."""
    seen = []
    inner = noise.ndtri

    def recording(u, out=None):
        z = inner(u, out=out)
        seen.append(z.copy())
        return z

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(noise, "ndtri", recording)
        noise.sample_segment(
            InitialSegmentSpec.lognormal(1.0, 1.0), TimeGrid(0.0, 1.0, 1, 1), seed, paths
        )
    (z,) = seen
    return z


# Rows of 8 B per path of a chunk that ``walk_in_spans`` starts from: a mean
# check of six checkpoints plans spans of 256 steps, 2 x 256 + 6 + 1 rows.
WALK_ROWS = 519


@pytest.fixture
def walk_in_spans(monkeypatch):
    """Run an experiment with its walk budget cut until it takes two spans.

    ``walk_in_spans(run, n_steps, chunk_paths)`` calls ``run()``, which runs
    one experiment, with the budget at ``WALK_ROWS`` rows of 8 B per path of
    ``chunk_paths`` and every span allowed (``_SHORTEST_SPAN`` 1), halving
    the budget until the plan takes at least two spans of ``n_steps``.  It
    returns the per-path array that the experiment reduced and the plan.
    A run whose chunk is shrunk to fit the budget can still plan a span of
    the whole horizon, where the paths split over the workers leave room.
    The walk is planned as on one CPU, without the span that a process with
    helper CPUs draws ahead, so that a test pins the same spans whatever
    the CPUs; the draws still run on the CPUs that the run has.
    """
    inner, plan_walk = experiments.map_paths, experiments.walk_plan
    monkeypatch.setattr(experiments, "_SHORTEST_SPAN", 1)

    def planned_alone(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "_draw_cpus", lambda workers: 1)
            return plan_walk(*args, **kwargs)

    monkeypatch.setattr(experiments, "walk_plan", planned_alone)

    def walked(run, n_steps: int, chunk_paths: int):
        rows = WALK_ROWS
        while True:
            monkeypatch.setattr(experiments, "_WALK_BYTES", 8 * chunk_paths * rows)
            seen = []

            def recording(plan, seed, reduce):
                seen.append((inner(plan, seed, reduce), plan))
                return seen[-1][0]

            monkeypatch.setattr(experiments, "map_paths", recording)
            run()
            monkeypatch.setattr(experiments, "map_paths", inner)
            ((per_path, plan),) = seen
            if plan.span < n_steps:
                return per_path, plan
            rows //= 2

    return walked


class _Planned(Exception):
    """Carries the plan of an experiment out of its map_paths call."""


@pytest.fixture
def plan_of(monkeypatch):
    """``plan_of(run)``: the :class:`~delay_cir.experiments.WalkPlan` with
    which ``run()``, which runs one experiment, would walk its chunks; no
    path is simulated."""

    def planned(plan, seed, reduce):
        raise _Planned(plan)

    def plan_of(run):
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "map_paths", planned)
            with pytest.raises(_Planned) as info:
                run()
        return info.value.args[0]

    return plan_of
