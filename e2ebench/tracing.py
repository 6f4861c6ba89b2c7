"""In-memory span tracing around the public functions of each layer.

A :class:`Tracer` replaces a function where it is *bound* (a module
global or a class attribute) with a wrapper that records one span per
call: name, start, end, parent span, drain id, and thread CPU time.
Nothing inside ``src/`` is edited; the wrappers live only in the process
that installed them, and :meth:`Tracer.uninstall` puts the originals back.

Spans are kept in flat ``array`` columns (a few bytes per field, no
per-span objects) and written once, at exit, with :meth:`Tracer.dump`.
Times come from ``time.perf_counter``, which on Linux is
CLOCK_MONOTONIC and therefore comparable with the load generator's
timestamps in another process on the same host.
"""

from __future__ import annotations

import json
import threading
import time
from array import array

__all__ = ["Tracer", "SpanTable", "self_times", "covered"]


class Tracer:
    """Records spans for every wrapped call; thread-safe."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._names = {}
        self.start = array("d")
        self.end = array("d")
        self.cpu = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.drain = array("l")
        self.attrs = {}  # span id -> dict, only for spans that carry any
        self.marks = {}  # column -> (label ids, numbers, times), see mark()
        self._installed = []

    # ------------------------------------------------------------------ #
    def _name_id(self, name):
        with self._lock:
            return self._names.setdefault(name, len(self._names))

    def _reserve(self):
        with self._lock:
            sid = len(self.start)
            for column in (self.start, self.end, self.cpu):
                column.append(0.0)
            for column in (self.name, self.parent, self.drain):
                column.append(-1)
            return sid

    def wrap(self, owner, attr, name, drain_root=False, on_return=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``drain_root`` spans start a drain id that every span nested in
        them (on the same thread) shares.  ``on_return(span_id, result,
        args, kwargs, exc)`` may return a dict of attributes to keep on the
        span; it also runs when the call raises (``result`` is None).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = tracer._reserve()
            if stack:
                parent = stack[-1]
                drain = tracer.drain[parent]
            else:
                parent, drain = -1, -1
            if drain < 0 and drain_root:
                drain = sid
            tracer.name[sid] = name_id
            tracer.parent[sid] = parent
            tracer.drain[sid] = drain
            stack.append(sid)
            cpu0 = time.thread_time()
            tracer.start[sid] = time.perf_counter()
            result, exc = None, None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                tracer.end[sid] = time.perf_counter()
                tracer.cpu[sid] = time.thread_time() - cpu0
                stack.pop()
                if on_return is not None:
                    extra = on_return(sid, result, args, kwargs, exc)
                    if extra:
                        tracer.attrs[sid] = extra

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))
        return traced

    def mark(self, column, label, number, t):
        """Record a point event ``(label, number, time)`` in ``column``
        (e.g. a delivered row: stream id, index, sink return time)."""
        label_id = self._name_id(label)
        with self._lock:
            columns = self.marks.get(column)
            if columns is None:
                columns = self.marks[column] = (array("l"), array("l"), array("d"))
            columns[0].append(label_id)
            columns[1].append(number)
            columns[2].append(t)

    def uninstall(self):
        """Restore every wrapped function, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def table(self):
        """A :class:`SpanTable` snapshot of everything recorded so far."""
        names = {index: name for name, index in self._names.items()}
        marks = {column: [(names[label], number, t) for label, number, t in zip(*cols)]
                 for column, cols in self.marks.items()}
        return SpanTable(
            names=[names[i] for i in self.name],
            start=list(self.start), end=list(self.end), cpu=list(self.cpu),
            parent=list(self.parent), drain=list(self.drain),
            attrs=dict(self.attrs), marks=marks,
        )

    def dump(self, path):
        """Write the spans as one JSON document (called once, at exit)."""
        table = self.table()
        with open(path, "w") as handle:
            json.dump({
                "names": table.names, "start": table.start, "end": table.end,
                "cpu": table.cpu, "parent": table.parent, "drain": table.drain,
                "attrs": {str(k): v for k, v in table.attrs.items()},
                "marks": table.marks,
            }, handle)


class SpanTable:
    """Column view of recorded spans, with the queries the metrics need."""

    def __init__(self, names, start, end, cpu, parent, drain, attrs=None,
                 marks=None):
        self.names = names
        self.start = start
        self.end = end
        self.cpu = cpu
        self.parent = parent
        self.drain = drain
        self.attrs = attrs or {}
        self.marks = marks or {}
        self.children = {}
        for sid, parent_id in enumerate(parent):
            if parent_id >= 0:
                self.children.setdefault(parent_id, []).append(sid)

    @classmethod
    def load(cls, path):
        with open(path) as handle:
            doc = json.load(handle)
        attrs = {int(k): v for k, v in doc.get("attrs", {}).items()}
        return cls(doc["names"], doc["start"], doc["end"], doc["cpu"],
                   doc["parent"], doc["drain"], attrs, doc.get("marks", {}))

    def ids(self, name):
        return [sid for sid, span_name in enumerate(self.names)
                if span_name == name]

    def duration(self, sid):
        return self.end[sid] - self.start[sid]

    def self_time(self, sid, subtract=None):
        """Duration minus the part covered by children (all, or those whose
        name is in ``subtract``)."""
        kids = [c for c in self.children.get(sid, ())
                if subtract is None or self.names[c] in subtract]
        intervals = [(self.start[c], self.end[c]) for c in kids]
        return self_times(self.start[sid], self.end[sid], intervals)

    def self_cpu(self, sid, subtract):
        """Thread CPU of a span minus that of its children named in
        ``subtract`` (children run on the span's thread, so CPU adds up).
        Unlike :meth:`self_time` this leaves out time spent blocked, such
        as waiting for a lock."""
        return self.cpu[sid] - sum(self.cpu[c] for c in self.children.get(sid, ())
                                   if self.names[c] in subtract)


def covered(lo, hi, intervals):
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(lo, hi, child_intervals):
    """Self time of a span ``[lo, hi]``: its duration minus the union of its
    children's intervals (nested or overlapping children counted once)."""
    return (hi - lo) - covered(lo, hi, child_intervals)
