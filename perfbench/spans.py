"""Span recording for the traced run.

The recorder wraps module attributes with timers, by name, for the length of
a ``with patched(...)`` block, and the benchmark opens spans of its own
around each public call. A span is (name, start, end, parent) plus two
optional integers taken from the call (a size and an auxiliary count). Spans
live in flat arrays in memory and are written out once, when the run ends.
An attribute that no longer exists is recorded as missing, not raised.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.aux = array("q")
        self._stack = [-1]
        self.missing: dict[str, str] = {}  # span name -> "module.attribute"

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.size.append(-1)
        self.aux.append(-1)
        self._stack.append(i)
        return i

    @contextmanager
    def span(self, name: str):
        i = self._open(self._id(name))
        self.start[i] = time.perf_counter()
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, measure=None):
        """``fn`` with a span around each call; ``measure(args, result)``
        returns the span's ``(size, aux)``."""
        nid = self._id(name)
        clock = time.perf_counter

        def timed(*args, **kwargs):
            i = self._open(nid)
            t = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
            self.start[i] = t
            if measure is not None:
                self.size[i], self.aux[i] = measure(args, out)
            return out

        return timed

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "size": np.frombuffer(self.size, dtype=np.int64),
            "aux": np.frombuffer(self.aux, dtype=np.int64),
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds, summed size."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        children = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                               minlength=dur.size)
        ids = a["name_id"]
        calls = np.bincount(ids, minlength=n_names)
        total = np.bincount(ids, weights=dur, minlength=n_names)
        self_s = np.bincount(ids, weights=dur - children, minlength=n_names)
        sized = a["size"] >= 0
        size = np.bincount(ids[sized], weights=a["size"][sized], minlength=n_names)
        return {
            name: {"calls": int(calls[k]), "total": float(total[k]),
                   "self": float(self_s[k]), "size": float(size[k])}
            for k, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), missing=np.array(sorted(self.missing.values())),
                 **self.arrays())


@contextmanager
def patched(recorder: Recorder, module, targets: dict):
    """Replace ``module.<attr>`` by a timed wrapper for each
    ``attr -> (span name, measure)`` in ``targets``; restore on exit."""
    saved = {}
    for attr, (name, measure) in targets.items():
        fn = getattr(module, attr, None)
        if fn is None:
            recorder.missing[name] = f"{module.__name__}.{attr}"
            continue
        saved[attr] = fn
        setattr(module, attr, recorder.wrap(name, fn, measure))
    try:
        yield
    finally:
        for attr, fn in saved.items():
            setattr(module, attr, fn)
