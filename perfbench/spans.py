"""Outside-in span tracer: wraps ``repro`` entry points from outside.

A :class:`Tracer` replaces chosen methods on ``repro`` classes with
thin wrappers that record one span per call, the same way
``repro.obs.profile.EngineProfiler`` wraps instance methods, but at
class level so that objects created after attaching (containers, shard
executors, namespaces) are covered too.  No file of the program is
changed, and :meth:`Tracer.detach` puts every original back.

Spans live in flat in-memory arrays (name, start, end, parent, run id)
and are written out once, at the end, by :meth:`Tracer.write`.  Self
time is computed afterwards from the parent links: a span's duration
minus the durations of its direct children.  Because children nest
inside their parent, that is exactly the part of the parent's interval
that no child span covers, and re-entrant calls of one name are never
counted twice.

A wrapper only records while its tracer is attached; after
:meth:`detach` a bound wrapper that some object still holds (say, a
cgroup-event subscription made while tracing) calls straight through.
A process forked while a tracer is attached (shard workers) detaches
every tracer in the child, so worker code runs unwrapped and the
parent's spans are never duplicated.
"""

from __future__ import annotations

import json
import os
import weakref
from array import array
from pathlib import Path
from time import perf_counter

__all__ = ["Tracer", "self_times"]

_MISSING = object()
#: Tracers attached in this process; a forked child detaches them all.
_LIVE: "weakref.WeakSet[Tracer]" = weakref.WeakSet()


def _detach_all_in_child() -> None:
    for tracer in list(_LIVE):
        tracer.detach()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_detach_all_in_child)


class Tracer:
    """Records spans around wrapped methods, into in-memory arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("H")
        self.run_id = 0
        #: Counters kept beside the spans (bytes, items): run id -> name -> n.
        self.counters: dict[int, dict[str, int]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.attached = False

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> int:
        """Open a span; returns its index for :meth:`exit`."""
        stack = self._stack
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def exit(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self.name_id(name))

    def count(self, name: str, amount: int) -> None:
        """Add ``amount`` to counter ``name`` of the current run."""
        row = self.counters.setdefault(self.run_id, {})
        row[name] = row.get(name, 0) + amount

    # -- instrumentation ---------------------------------------------------

    def wrap(self, owner: type, attr: str, span_name: str) -> None:
        """Record a ``span_name`` span around every call of ``owner.attr``."""
        nid = self.name_id(span_name)
        tracer = self

        def make_wrapper(orig):
            def wrapper(*args, **kwargs):
                if not tracer.attached:
                    return orig(*args, **kwargs)
                index = tracer.enter(nid)
                try:
                    return orig(*args, **kwargs)
                finally:
                    tracer.exit(index)

            wrapper.__name__ = getattr(orig, "__name__", attr)
            wrapper.__wrapped__ = orig
            return wrapper

        self.wrap_with(owner, attr, make_wrapper)

    def wrap_with(self, owner: type, attr: str, make_wrapper) -> None:
        """Install ``make_wrapper(orig)`` in place of ``owner.attr``."""
        orig = getattr(owner, attr)
        prior = owner.__dict__.get(attr, _MISSING)
        setattr(owner, attr, make_wrapper(orig))
        self._patched.append((owner, attr, prior))
        self.attached = True
        _LIVE.add(self)

    def detach(self) -> None:
        """Restore every wrapped attribute (idempotent)."""
        self.attached = False
        for owner, attr, prior in reversed(self._patched):
            if prior is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, prior)
        self._patched.clear()
        _LIVE.discard(self)

    # -- results -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: Path, header: dict) -> None:
        """Write every span: a JSON header line, then the raw arrays.

        The arrays follow in the order ``name, start, end, parent, run``
        in native byte order; the header gives their type codes and the
        span count, and maps name ids to span names.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = dict(header, spans=len(self), names=self.names,
                    arrays=[[key, getattr(self, key).typecode]
                            for key in ("name", "start", "end", "parent",
                                        "run")],
                    counters=self.counters)
        with open(path, "wb") as fh:
            fh.write(json.dumps(meta, sort_keys=True).encode() + b"\n")
            for key in ("name", "start", "end", "parent", "run"):
                getattr(self, key).tofile(fh)


class _Span:
    __slots__ = ("tracer", "nid", "index")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self) -> "_Span":
        self.index = self.tracer.enter(self.nid)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.exit(self.index)


def self_times(tracer: Tracer, run_id: int | None = None) -> dict[str, dict]:
    """Per span name: ``calls``, ``self_s`` and outermost ``inclusive_s``.

    ``self_s`` is each span's duration minus its direct children's.
    ``inclusive_s`` sums only spans with no ancestor of the same name,
    so a re-entrant call is not counted twice.  ``run_id`` restricts
    the result to the spans of one run.
    """
    n = len(tracer)
    name, start, end, parent, run = (tracer.name, tracer.start, tracer.end,
                                     tracer.parent, tracer.run)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    out: dict[str, dict] = {}
    for i in range(n):
        if run_id is not None and run[i] != run_id:
            continue
        nid = name[i]
        row = out.get(nid)
        if row is None:
            row = out[nid] = {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0}
        dur = end[i] - start[i]
        row["calls"] += 1
        row["self_s"] += dur - child[i]
        p = parent[i]
        while p >= 0 and name[p] != nid:
            p = parent[p]
        if p < 0:
            row["inclusive_s"] += dur
    return {tracer.names[nid]: row for nid, row in out.items()}
