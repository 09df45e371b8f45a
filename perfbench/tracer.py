"""Spans around the package's public functions, recorded from outside.

Each traced function is replaced, at the module attribute its callers look
up, by a wrapper that logs two events per call in memory: entry (the
function's name and the clock) and exit (the clock, and whether the call
returned or raised).  Calls nest, so the log converts exactly to spans
with name, start, end and parent, which are written out when the benchmark
ends.  Logging events instead of spans keeps the wrapper down to four
array appends and two clock reads.

A function's self time is the sum over its spans of the span's duration
minus the durations of its direct child spans, each span's share scaled
by a factor given per span.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Iterable

import numpy as np

NO_PARENT = -1
RETURNED = -1
RAISED = -2


class Tracer:
    """Installs event-logging wrappers and restores the originals.

    targets: (module, attribute, span name) triples.  The same span name
    may be installed at several lookup sites of one function.
    """

    def __init__(self, targets: Iterable[tuple[object, str, str]]):
        self._targets = list(targets)
        self.names: list[str] = []
        self._codes = array("i")
        self._times = array("d")
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module, attr, name in self._targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            if name not in self.names:
                self.names.append(name)
            setattr(module, attr, self._wrap(original, self.names.index(name)))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn: Callable, name_id: int) -> Callable:
        log_code = self._codes.append
        log_time = self._times.append
        clock = time.perf_counter

        def traced(*args, **kwargs):
            log_code(name_id)
            log_time(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                log_time(clock())
                log_code(RAISED)
                raise
            log_time(clock())
            log_code(RETURNED)
            return result

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> dict[str, np.ndarray]:
        """The span table, one row per call in order of entry."""
        n = len(self._codes) // 2
        name_id = np.empty(n, dtype=np.int32)
        parent = np.empty(n, dtype=np.int32)
        start = np.empty(n)
        end = np.empty(n)
        returned = np.empty(n, dtype=bool)
        open_spans = [NO_PARENT]
        index = 0
        for code, t in zip(self._codes, self._times):
            if code >= 0:
                name_id[index] = code
                parent[index] = open_spans[-1]
                start[index] = t
                open_spans.append(index)
                index += 1
            else:
                closing = open_spans.pop()
                end[closing] = t
                returned[closing] = code == RETURNED
        return {"name_id": name_id, "parent": parent, "start": start, "end": end,
                "returned": returned}


class SpanTable:
    """Per-name aggregates over the spans of one traced run.

    scale: a factor per span for its self time (see timing.py).
    """

    def __init__(self, names: list[str], spans: dict[str, np.ndarray],
                 scale: np.ndarray):
        self.names = names
        self.name_id = spans["name_id"]
        self.parent = spans["parent"]
        self.returned = spans["returned"]
        duration = spans["end"] - spans["start"]
        child_time = np.zeros_like(duration)
        has_parent = self.parent != NO_PARENT
        np.add.at(child_time, self.parent[has_parent], duration[has_parent])
        self.self_time = (duration - child_time) * scale

    def _mask(self, name: str) -> np.ndarray:
        return self.name_id == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self._mask(name)))

    def returns(self, name: str) -> int:
        return int(np.count_nonzero(self._mask(name) & self.returned))

    def self_s(self, name: str) -> float:
        return float(np.sum(self.self_time[self._mask(name)]))

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans of name that have a span of ancestor among their ancestors."""
        ancestor_id = self.names.index(ancestor)
        count = 0
        for index in np.flatnonzero(self._mask(name)):
            parent = self.parent[index]
            while parent != NO_PARENT:
                if self.name_id[parent] == ancestor_id:
                    count += 1
                    break
                parent = self.parent[parent]
        return count
