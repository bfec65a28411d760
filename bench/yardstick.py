"""Host-speed yardstick: a fixed NumPy/SciPy job timed between runs.

The benchmark shares a host whose speed drifts by a factor of up to 1.8 over
minutes (other tenants load the cores' caches and memory), and a process's CPU
time drifts with its wall time, so neither says how fast the program is.  The
yardstick does the same kinds of work as the program, on inputs fixed here,
and is timed right before and after every run; a run's time is then rescaled
to the speed at which the yardstick takes ``REFERENCE_S``.  A change to the
program moves the run but not the yardstick, so it shows in full.

The two parts follow the program's two cost profiles:

* per-generator Philox draws and ``ndtri`` on short rows (``noise.generate``
  and ``sample_segment``, once per path);
* a column-by-column implicit march over a 1024-path block, then block sums
  (``simulate_y_paths``, the baselines and ``block_sum``).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import ndtri

# The yardstick's time on a 2-core Intel Xeon (2.0 GHz) virtual machine in a
# quiet minute.  Rescaled times read as seconds on that host.
REFERENCE_S = 0.22


def _philox_rows(rows: int = 4000, n: int = 192) -> float:
    total = 0.0
    for i in range(rows):
        gen = np.random.Generator(np.random.Philox(key=[i, 7]))
        draws = gen.integers(0, 2**53, size=n, dtype=np.uint64)
        total += float(np.cumsum(ndtri((draws + 0.5) * 2.0**-53))[-1])
    return total


def _implicit_march(paths: int = 1024, steps: int = 1536) -> float:
    z = np.random.default_rng(2).standard_normal((paths, steps))
    out = np.empty_like(z)
    y = np.ones(paths)
    for k in range(steps):
        y = 0.5 * (y + np.sqrt(y * y + 0.01 * np.abs(z[:, k]) + 1e-3))
        out[:, k] = y
    return float(out.reshape(paths, -1, 8).sum(axis=2).sum())


def yardstick_s() -> float:
    """Wall seconds the fixed yardstick job takes now."""
    t0 = time.perf_counter()
    _philox_rows()
    _implicit_march()
    return time.perf_counter() - t0


class Rescaler:
    """Times the yardstick between measured intervals.

    Create it right before the first interval and call ``factor`` right after
    each one: the interval's time times the factor is its time at the
    reference speed, judged by the yardstick timed on either side of it.
    ``power`` is how strongly the interval's work follows the yardstick
    (``Workload.host_power``).
    """

    def __init__(self, power: float = 1.0) -> None:
        self.power = power
        self.samples = [yardstick_s()]

    def factor(self) -> float:
        before = self.samples[-1]
        self.samples.append(yardstick_s())
        return (REFERENCE_S / (0.5 * (before + self.samples[-1]))) ** self.power
