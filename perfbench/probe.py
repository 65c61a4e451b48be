"""The host-speed probe: a fixed kernel whose time rescales measured times.

On a host whose cores are shared with other tenants the same work takes
more or less time from one moment to the next.  :func:`probe` times a
fixed mix of interpreter and small-array NumPy work -- the two kinds of
work ``repro`` does -- that does not depend on ``repro``.  A time
measured while probes ran is rescaled to the speed at which one probe
takes ``PROBE_REF_S`` (see README.md, "Normalised times")::

    normalised = seconds * PROBE_REF_S / mean(probe times)

This module imports nothing from ``repro``.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any

import numpy as np

#: the probe's time at the speed normalised times refer to (about its
#: time on an idle core of the reference host), and how often a running
#: measurement is probed
PROBE_REF_S = 0.0016
PROBE_PERIOD_S = 0.05

#: the cores this process may use, read before anything is pinned
CORES = tuple(sorted(os.sched_getaffinity(0)))


def pin(pid: int, core: int) -> None:
    """Pin ``pid`` to ``CORES[core]`` when there are two or more cores,
    so the work does not migrate between cores."""
    if len(CORES) >= 2:
        os.sched_setaffinity(pid, {CORES[core]})


def probe() -> float:
    """Seconds for the fixed kernel (about 1.6 ms on an idle core)."""
    t0 = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    a = np.arange(64.0)
    for _ in range(250):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def rescale(seconds: float, samples: list[float]) -> float:
    """``seconds`` at the speed at which one probe takes ``PROBE_REF_S``."""
    return seconds * PROBE_REF_S / float(np.mean(samples))


class HostSpeed:
    """Probe samples taken on a timer signal while the block runs (the
    probes' own time is in ``sum(samples)``, to be taken off)."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, _signum: int, _frame: Any) -> None:
        self.samples.append(probe())

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # shorter than one period
            self.samples.append(probe())


#: probes in one measurement of a core's speed
CORE_PROBES = 5


def probe_core(core: int) -> float:
    """Mean time of ``CORE_PROBES`` probes on ``CORES[core]``, for a core
    whose own work is idle at the moment.  This process moves to that
    core for the probes and then to ``CORES[-1]``."""
    pin(os.getpid(), core)
    try:
        return float(np.mean([probe() for _ in range(CORE_PROBES)]))
    finally:
        pin(os.getpid(), -1)
