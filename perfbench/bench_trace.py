"""Span tracing from outside the program.

The traced run replaces public functions of the geowsn modules with
wrappers that record one span per call: name, start, end and the span
that was open when the call began.  Spans stay in memory in flat
arrays and are reduced to call counts, total time and self time (a
span's duration minus the time its direct children cover) when the run
ends.  Every wrapper is removed again when the traced block exits.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np


@dataclass
class SpanStats:
    calls: int
    total_s: float
    self_s: float


class Tracer:
    """Records spans while ``active``; a wrapper called while inactive
    forwards the call and records nothing."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {}
        self.active = False
        self._open: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records a span ``name``."""
        nid = self._id(name)
        open_spans = self._open
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(start)
            name_id.append(nid)
            parent.append(open_spans[-1] if open_spans else -1)
            end.append(0)
            open_spans.append(index)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = perf_counter_ns()
                open_spans.pop()

        return wrapper

    def counter(self, name: str, fn):
        """``fn`` wrapped so that each call adds one to ``counts[name]``."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def stats(self) -> dict[str, SpanStats]:
        return self_times(self.names, self.name_id, self.parent,
                          self.start, self.end)

    def by_parent(self) -> list[dict]:
        """Calls, total and self time per (span, parent span) pair."""
        ids = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur, own = _durations(parent, np.asarray(self.start, dtype=np.int64),
                              np.asarray(self.end, dtype=np.int64))
        parent_ids = np.where(parent >= 0, ids[parent], -1)
        pairs, inverse = np.unique(np.stack([ids, parent_ids], axis=1),
                                   axis=0, return_inverse=True)
        inverse = inverse.ravel()
        calls = np.bincount(inverse, minlength=len(pairs))
        total = np.bincount(inverse, weights=dur, minlength=len(pairs))
        own_total = np.bincount(inverse, weights=own, minlength=len(pairs))
        return [
            {"span": self.names[nid],
             "parent": self.names[pid] if pid >= 0 else None,
             "calls": int(calls[k]),
             "total_s": total[k] / 1e9,
             "self_s": own_total[k] / 1e9}
            for k, (nid, pid) in enumerate(pairs.tolist())
        ]


def _durations(parent: np.ndarray, start: np.ndarray,
               end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each span's duration and its self time, in ns."""
    dur = end - start
    if (dur < 0).any():
        raise ValueError("a span ends before it starts (still open?)")
    covered = np.zeros(len(dur), dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur, dur - covered


def self_times(names, name_id, parent, start, end) -> dict[str, SpanStats]:
    """Reduce flat span arrays to per-name calls, total and self time.

    ``name_id[i]`` indexes ``names``; ``parent[i]`` is the index of the
    span that was open when span ``i`` began, or -1.  Times are in ns.
    """
    ids = np.asarray(name_id, dtype=np.int64)
    dur, own = _durations(np.asarray(parent, dtype=np.int64),
                          np.asarray(start, dtype=np.int64),
                          np.asarray(end, dtype=np.int64))
    calls = np.bincount(ids, minlength=len(names))
    total = np.bincount(ids, weights=dur, minlength=len(names))
    self_ns = np.bincount(ids, weights=own, minlength=len(names))
    return {
        name: SpanStats(int(calls[i]), total[i] / 1e9, self_ns[i] / 1e9)
        for i, name in enumerate(names)
    }


@contextmanager
def patched(replacements):
    """Set each ``(owner, attribute, value)`` for the block, then put
    every original back, in reverse order."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
