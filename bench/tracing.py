"""In-memory span recorder that wraps functions from outside the program.

A span is one call: (name, start, end, parent span, run id).  Spans are kept
in flat typed arrays while the benchmark runs and written out once at the end.
Wrapping replaces module and class attributes; :meth:`Tracer.restore` puts
every original back.
"""

import functools
import time
from array import array

import numpy as np

NO_PARENT = -1


class Tracer:
    """Records nested spans of single-threaded calls."""

    def __init__(self):
        self.names = []
        self._codes = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = []  # (span index, {counter: value})
        self.run_id = 0
        self._stack = [NO_PARENT]
        self._patches = []

    def code(self, name):
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def _open(self, code):
        idx = len(self.start)
        self.name_id.append(code)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        idx = self._open(self.code(name))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, t0, time.perf_counter())

    def wrap(self, fn, name, count=None):
        """Return fn recording one span per call.

        name is a string, or a callable taking the call's arguments and
        returning one (used for methods named by their instance).  count, if
        given, maps (args, result) to a dict of counters stored with the span.
        """
        fixed = None if callable(name) else self.code(name)
        codes = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fixed is None:
                label = name(*args)
                code = codes.get(label)
                if code is None:
                    code = codes[label] = self.code(label)
            else:
                code = fixed
            idx = self._open(code)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, time.perf_counter())
            if count is not None:
                self.counters.append((idx, count(args, result)))
            return result

        return wrapper

    def patch(self, owner, attr, replacement):
        """Set owner.attr, remembering the original for :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self):
        """Undo every patch, last first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __len__(self):
        return len(self.start)

    def spans(self):
        """The recorded spans as a dict of numpy arrays."""
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path):
        """Write the spans and the name table to an .npz file."""
        np.savez(path, names=np.array(self.names, dtype=str), **self.spans())


def self_times(parent, duration):
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so direct children never overlap each other
    and their summed durations are the part of the parent they cover.
    """
    parent = np.asarray(parent)
    duration = np.asarray(duration, dtype=float)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=duration.size
    )
    return duration - covered


def summarize(tracer):
    """Per span name: calls, total and self seconds."""
    sp = tracer.spans()
    duration = sp["end"] - sp["start"]
    own = self_times(sp["parent"], duration)
    out = {}
    for code, name in enumerate(tracer.names):
        sel = sp["name"] == code
        calls = int(sel.sum())
        if calls:
            out[name] = {
                "calls": calls,
                "total_s": float(duration[sel].sum()),
                "self_s": float(own[sel].sum()),
            }
    return out


def counter_totals(tracer):
    """Sum the counters recorded with spans, per span name and counter."""
    out = {}
    for idx, counts in tracer.counters:
        per_name = out.setdefault(tracer.names[tracer.name_id[idx]], {})
        for key, value in counts.items():
            per_name[key] = per_name.get(key, 0) + value
    return out
