"""Spans around calls into the package's public callables.

The benchmark wraps module functions and class methods of ``qrdyn`` from
outside, for the traced run only, and restores them afterwards.  Spans are
kept in flat arrays in memory; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = []

    def name_id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def __len__(self):
        return len(self.start)

    def wrap(self, fn, name, pick=None):
        """``fn`` recording one span per call.  ``pick(*args)`` returns a
        span name id, for callables whose calls split into regimes."""
        fixed = self.name_id(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(fixed if pick is None else pick(*args))
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0)
            stack.append(i)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()

        return traced

    @contextmanager
    def patched(self, targets):
        """Replace ``getattr(owner, attr)`` by its traced version for each
        ``(owner, attr, name, pick)`` while the block runs."""
        saved = []
        try:
            for owner, attr, name, pick in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, pick))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self):
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        return (np.frombuffer(self.name, dtype=np.uint16),
                np.frombuffer(self.parent, dtype=np.int32), start, end)

    def summary(self, lo=0, hi=None):
        """name -> (calls, self ns, calls whose parent has each name) over
        spans ``lo <= i < hi``."""
        name, parent, start, end = self.arrays()
        hi = len(name) if hi is None else hi
        dur = end - start
        child = np.zeros(len(name), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        out = {}
        for nid, label in enumerate(self.names):
            sel = np.nonzero(name[lo:hi] == nid)[0] + lo
            parents = parent[sel]
            by_parent = {}
            for pid in np.unique(name[parents[parents >= 0]]):
                by_parent[self.names[pid]] = int(
                    np.count_nonzero(name[parents[parents >= 0]] == pid))
            out[label] = (len(sel), int(self_ns[sel].sum()), by_parent)
        return out

    def write(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)
