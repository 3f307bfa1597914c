"""Machine-speed probe: wall times normalised to a fixed machine speed.

The shared virtual machines this benchmark runs on change speed by a
quarter and more for seconds at a time: a fixed pure-Python loop timed
over a minute on a 2-vCPU Xeon VM took 15-25 ms in one-second medians,
in CPU time as much as in wall time, so the program's step times swing
with it and a half-minute run does not average the phases out.

While a :class:`SpeedProbe` is active, an interval timer interrupts the
program every ``EVERY_S`` and times a fixed calibration loop.  The work
done in a wall interval is the interval minus the samples inside it;
multiplied by ``REFERENCE_S`` over the median sample near the interval,
it is the time the same work would take on a machine where the loop
takes exactly ``REFERENCE_S``.  The benchmark reports its wall metrics
in these reference seconds.  A change that makes the program faster
moves them exactly as much as it moves raw wall time, because the loop
runs none of the program's code.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import signal
import statistics
import time
from typing import List

import numpy as np

#: The loop's time on the reference machine; a normalised time is in
#: seconds of that machine.  (The loop takes about this long on a
#: 2.0 GHz Xeon vCPU under CPython 3.11 in its faster phases.)
REFERENCE_S = 1e-3

#: Interval between two calibration samples.
EVERY_S = 0.025

#: Work is timed at the speed of the samples within this much of it.
NEAR_S = 0.1


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y

    def key(self) -> int:
        return (self.x * 31 + self.y) % 1009


_RNG = np.random.default_rng(0)
_DIST = _RNG.random(20_000)
_WEIGHTS = _RNG.random(len(_DIST))
_DIRTY = _RNG.random(len(_DIST)) < 0.3
_HEADS = _RNG.integers(0, len(_DIST), 2 * len(_DIST))
_ACTIVE = _RNG.integers(0, len(_DIST), 250)


def calibration_loop() -> float:
    """Fixed work of the kinds the program does: object creation, method
    calls, dict inserts and lookups, tuples and a sort in the
    interpreter, then whole-array numpy masks, ``isin``, gathers and
    compares like the sharded plane's relaxation, each about half the
    loop's time.  Speed phases hit the two kinds of work unequally; the
    mix tracks both the pure-Python workloads and ``crowd-sharded``,
    whose time is mostly in such array expressions."""
    table = {}
    total = 0
    for i in range(1000):
        point = _Point(i, i * 7)
        key = point.key()
        table[key] = (i, point)
        total += len(table) ^ key
    ordered = sorted(table.values(), key=lambda pair: -pair[0])
    active = np.flatnonzero(_DIRTY & (_DIST < 0.5))
    edges = np.flatnonzero(np.isin(_HEADS, _ACTIVE))
    nodes = edges % len(_DIST)
    candidate = _DIST[_HEADS[edges]] + _WEIGHTS[nodes]
    better = candidate < _DIST[nodes]
    return (total + ordered[0][0] + len(active)
            + float(candidate[better].sum()))


class SpeedProbe:
    """Calibration samples taken on a timer while the probe is active
    (``with probe: ...``); the main thread runs them between bytecodes,
    so each falls wholly between two of the program's instructions."""

    def __init__(self) -> None:
        #: start and duration of each sample, in time order
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._sums: List[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            began = time.perf_counter()
            calibration_loop()
            took = time.perf_counter() - began
        finally:
            if enabled:
                gc.enable()
        self.starts.append(began)
        self.durations.append(took)

    def sampled_s(self, began: float, ended: float) -> float:
        """Wall time the samples took between ``began`` and ``ended``."""
        if len(self._sums) != len(self.durations):
            self._sums = [0.0, *itertools.accumulate(self.durations)]
        first = bisect.bisect_left(self.starts, began)
        last = bisect.bisect_left(self.starts, ended)
        return self._sums[last] - self._sums[first]

    def reference_s(self, began: float, ended: float) -> float:
        """Reference seconds of the program's work between ``began`` and
        ``ended``: the interval less the samples in it, at the speed of
        the median sample within ``NEAR_S`` of it (at least the sample
        before it and the one after)."""
        first = min(bisect.bisect_left(self.starts, began - NEAR_S),
                    bisect.bisect_left(self.starts, began) - 1)
        last = max(bisect.bisect_right(self.starts, ended + NEAR_S),
                   bisect.bisect_right(self.starts, ended) + 1)
        near = self.durations[max(0, first):last]
        work = ended - began - self.sampled_s(began, ended)
        return work * REFERENCE_S / statistics.median(near)
