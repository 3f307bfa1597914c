"""Span recording around the program's layer entry points.

The benchmark measures the program from the outside: :class:`Patcher`
replaces each listed function or method with a wrapper that records one
span (name, start, end, parent) per call, and puts every original back
afterwards.  Spans live in flat arrays while the run lasts and are
written out once at the end.

A span's *self time* is its duration minus the time its direct child
spans cover.  Because every child starts and ends inside its parent,
the self times of all spans sum to the duration of the root spans, and
the wall time of a traced run splits exactly into per-layer self time
plus an unattributed remainder (benchmark code and program code outside
every wrapped entry point).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

import numpy as np


class SpanLog:
    """Spans kept in memory: parallel arrays indexed by span number."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` behind a wrapper that records one span per call."""
        name_id = self.name_id(name)
        start, end, parent, names = self.start, self.end, self.parent, self.name
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(name_id)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return span

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.name, dtype=np.int64))

    def save(self, path: str) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        start, end, parent, name = self.arrays()
        np.savez_compressed(path, start=start, end=end, parent=parent,
                            name=name, names=np.asarray(self.names))


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the direct children's durations."""
    duration = end - start
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent],
                           minlength=len(duration))
    return duration - children


def self_time_by_name(log: SpanLog, first: int = 0,
                      last: int | None = None) -> Dict[str, float]:
    """Total self time of each span name over spans ``[first, last)``.

    Spans in the range must form whole subtrees (a range cut at a point
    where no span is open), so every child's parent is in the range too.
    """
    start, end, parent, name = log.arrays()
    last = len(start) if last is None else last
    start, end, name = start[first:last], end[first:last], name[first:last]
    parent = parent[first:last] - first
    parent[parent < 0] = -1
    own = self_times(start, end, parent)
    totals = np.bincount(name, weights=own, minlength=len(log.names))
    return {n: float(totals[i]) for i, n in enumerate(log.names)}


def root_duration(log: SpanLog) -> float:
    """Wall time covered by spans that have no parent."""
    start, end, parent, _ = log.arrays()
    roots = parent < 0
    return float(np.sum(end[roots] - start[roots]))


def min_self_time(log: SpanLog) -> float:
    """Smallest per-span self time; negative means spans did not nest."""
    start, end, parent, _ = log.arrays()
    if not len(start):
        return 0.0
    return float(self_times(start, end, parent).min())


def count_by_name(log: SpanLog) -> Dict[str, int]:
    _, _, _, name = log.arrays()
    counts = np.bincount(name, minlength=len(log.names))
    return {n: int(counts[i]) for i, n in enumerate(log.names)}


class Patcher:
    """Replaces attributes and restores the originals on :meth:`restore`.

    A module-level function is replaced in its defining module *and* in
    every already-imported ``repro`` module that bound the same object
    with ``from ... import``, since those call sites hold their own
    reference.
    """

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object]] = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, cls: type, attr: str,
               wrap: Callable[[Callable], Callable]) -> None:
        """Wrap ``cls.attr`` (a plain function, classmethod or staticmethod
        defined on ``cls`` itself)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            self._set(cls, attr, type(raw)(wrap(raw.__func__)))
        elif callable(raw):
            self._set(cls, attr, wrap(raw))
        else:
            raise TypeError(f"{cls.__name__}.{attr} is not a function")

    def function(self, module: object, attr: str,
                 wrap: Callable[[Callable], Callable]) -> None:
        """Wrap ``module.attr`` everywhere it was imported by name."""
        original = vars(module)[attr]
        wrapped = wrap(original)
        for name, other in list(sys.modules.items()):
            if other is None or name.split(".")[0] != "repro":
                continue
            for bound, value in list(vars(other).items()):
                if value is original:
                    self._set(other, bound, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
