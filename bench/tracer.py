"""Outside-in layer tracer for one in-process CLI run.

The program is not instrumented.  Instead, while a :class:`Tracer` is
installed, the functions that cross a layer boundary are replaced by timing
wrappers *at the attribute where the caller looks them up*:

* ``cli`` imports the experiment drivers by name, so ``cli.strong_error_study``
  (not ``experiments.strong_error_study``) is wrapped;
* ``experiments`` imports ``mean_delay_curve``/``classical_mean`` and the model
  helpers by name, so those are wrapped on ``experiments``;
* ``experiments`` calls ``noise_mod.*`` and ``scheme_mod.*`` through the module
  object, so those are wrapped on the module;
* ``noise`` looks ``ndtri`` up as a module global, so ``noise.ndtri`` is
  wrapped.

Every count is computed from call arguments or result shapes at the boundary
(byte counts are therefore *computed*, not measured traffic).  Spans are not
kept: each one is folded, as it closes, into per-name totals of inclusive
time, self time and calls.  A span's self time is its duration minus the time
its direct child spans cover.  A span opened on a worker thread with nothing
open on that thread is a child of the outermost open span, and such children
are merged as a union of intervals, so a driver that fans out over a thread
pool still gets an honest self time.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _path_steps(args, kwargs, result):
    return int(np.size(_arg(args, kwargs, 2, "increments")))


def _block_sum_bytes(args, kwargs, result):
    # read the fine increments once, write the block sums once
    return int(np.asarray(args[0]).nbytes + np.asarray(result).nbytes)


def _normals(args, kwargs, result):
    return int(np.size(result))


def _text_bytes(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "text").encode("utf-8"))


# (module key, attribute, span name, counter name, counter); module keys
# index the dict of imported delay_cir modules handed to Tracer.  CSV and
# manifest writes have no public entry point, so the private writer that
# every one of them goes through is the cli.write boundary.
BOUNDARIES = (
    ("cli", "strong_error_study", "experiments", None, None),
    ("cli", "mean_consistency_check", "experiments", None, None),
    ("cli", "positivity_census", "experiments", None, None),
    ("cli", "comparison_census", "experiments", None, None),
    ("cli", "modulus_scaling", "experiments", None, None),
    ("cli", "survival_probability", "experiments", None, None),
    ("cli", "classical_variant", "experiments", None, None),
    ("cli", "fit_rate", "experiments", None, None),
    ("cli", "build_grid", "model", None, None),
    ("cli", "gamma_bounds", "model", None, None),
    ("cli", "_write_atomic", "cli.write", "cli.write.bytes", _text_bytes),
    ("experiments", "validate", "model", None, None),
    ("experiments", "build_grid", "model", None, None),
    ("experiments", "mean_delay_curve", "cir_analytics", None, None),
    ("experiments", "classical_mean", "cir_analytics", None, None),
    ("noise", "generate", "noise.generate", None, None),
    ("noise", "sample_segment", "noise.sample_segment", None, None),
    ("noise", "block_sum", "noise.block_sum", "noise.block_sum.bytes", _block_sum_bytes),
    ("noise", "ndtri", "noise.ndtri", "noise.normals", _normals),
    ("scheme", "simulate_y_paths", "scheme.implicit", "scheme.implicit.path_steps", _path_steps),
    ("scheme", "truncated_euler_paths", "scheme.baseline", "scheme.baseline.path_steps", _path_steps),
    ("scheme", "symmetrized_euler_paths", "scheme.baseline", "scheme.baseline.path_steps", _path_steps),
)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# A frame is [start, seconds covered by children on the same thread (they
# never overlap), (start, end) intervals of children on other threads].
_START, _CHILD_S, _FOREIGN = range(3)


class Tracer:
    """Per-span-name totals: inclusive seconds, self seconds, calls, counters.

    Each thread accumulates into its own table, so the wrappers take no lock;
    the tables are merged when a total is read.
    """

    def __init__(self, modules: dict):
        self._modules = modules
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []
        self._root = None

    def _thread_table(self):
        table = defaultdict(lambda: [0.0, 0.0, 0, 0])  # total_s, self_s, calls, count
        self._local.stack = []
        self._local.table = table
        with self._lock:
            self._tables.append(table)
        return table

    def _merged(self, field: int, default) -> defaultdict:
        out = defaultdict(type(default))
        for table in self._tables:
            for key, acc in list(table.items()):
                out[key] += acc[field]
        return out

    @property
    def total_s(self):
        return self._merged(0, 0.0)

    @property
    def self_s(self):
        return self._merged(1, 0.0)

    @property
    def calls(self):
        return self._merged(2, 0)

    @property
    def counts(self):
        """Counter name -> total, e.g. ``noise.normals``."""
        return self._merged(3, 0)

    def _wrap(self, fn, name, counter_name, counter):
        tracer = self
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                table = local.table
            except AttributeError:
                table = tracer._thread_table()
            stack = local.stack
            same_thread = bool(stack)
            parent = stack[-1] if same_thread else tracer._root
            frame = [clock(), 0.0, None]
            if parent is None:
                tracer._root = frame
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[_START]
                own = duration - frame[_CHILD_S]
                if frame[_FOREIGN]:
                    own -= _covered(frame[_FOREIGN])
                if same_thread:
                    parent[_CHILD_S] += duration
                elif parent is not None:
                    if parent[_FOREIGN] is None:
                        parent[_FOREIGN] = []
                    parent[_FOREIGN].append((frame[_START], end))
                else:
                    tracer._root = None
                acc = table[name]
                acc[0] += duration
                acc[1] += own
                acc[2] += 1
            if counter is not None:
                table[counter_name][3] += counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block, then restore."""
        originals = []
        try:
            for module_key, attr, name, counter_name, counter in BOUNDARIES:
                module = self._modules[module_key]
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, counter_name, counter))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)
