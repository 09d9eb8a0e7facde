"""Discrete-event engine: a time-ordered queue of callbacks plus timers.

The engine deliberately knows nothing about scheduling or memory; it only
orders callbacks in time.  Components schedule one-shot events
(:meth:`EventLoop.call_at` / :meth:`EventLoop.call_after`) or periodic
timers (:meth:`EventLoop.call_every`) and may cancel them through the
returned :class:`EventHandle`.

Ties are broken by insertion order so runs are fully deterministic.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable

from repro.errors import SimulationError
from repro.sim.clock import SimClock

__all__ = ["EventHandle", "EventLoop"]

_INF = math.inf


class EventHandle:
    """Cancellation/inspection handle for a scheduled event.

    Periodic timers keep the same handle across firings; cancelling the
    handle stops future firings.

    Handles scheduled with ``transient=True`` return to the loop's free
    list after they fire and may be handed out again by a later
    ``call_at`` — the scheduling caller promises not to retain them past
    the callback.  Only handles that fired normally are ever recycled: a
    cancelled handle may still be referenced by a stale heap entry (and
    by the owner who cancelled it), and resetting its ``cancelled`` flag
    for reuse would resurrect that entry, so cancelled and periodic
    handles are never pooled.
    """

    __slots__ = ("when", "period", "callback", "name", "cancelled", "_fired",
                 "_loop", "_in_heap", "_transient")

    def __init__(self, when: float, callback: Callable[[], None], *,
                 period: float | None = None, name: str = ""):
        self.when = when
        self.period = period
        self.callback = callback
        self.name = name
        self.cancelled = False
        self._fired = False
        self._loop: "EventLoop | None" = None
        self._in_heap = False
        self._transient = False

    def cancel(self) -> None:
        """Prevent the event from firing (again)."""
        if not self.cancelled:
            self.cancelled = True
            if self._in_heap and self._loop is not None:
                self._loop._note_cancelled()

    @property
    def active(self) -> bool:
        """True while the event is still due to fire."""
        return not self.cancelled and (self.period is not None or not self._fired)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "timer" if self.period is not None else "event"
        return f"<{kind} {self.name or 'anon'} @{self.when:.6f} cancelled={self.cancelled}>"


class EventLoop:
    """Deterministic discrete-event queue bound to a :class:`SimClock`."""

    #: Free-list bound: enough to absorb a burst of transient one-shots
    #: without letting a pathological storm pin memory forever.
    _POOL_MAX = 256

    def __init__(self, clock: SimClock):
        self.clock = clock
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._counter = itertools.count()
        self._n_cancelled = 0   # cancelled entries still sitting in the heap
        #: Recycled transient handles (fired, non-periodic, not in heap).
        self._pool: list[EventHandle] = []

    def _push(self, handle: EventHandle, when: float) -> None:
        handle._loop = self
        handle._in_heap = True
        heapq.heappush(self._heap, (when, next(self._counter), handle))

    def _note_cancelled(self) -> None:
        """A live heap entry was cancelled; compact when they dominate.

        Long-lived worlds cancel timers constantly (request timeouts that
        rarely fire); without compaction the heap grows with cancellations
        rather than with pending events.  Rebuilding once cancelled
        entries outnumber live ones keeps push/pop at O(log live) with
        amortized O(1) compaction cost per cancellation.
        """
        self._n_cancelled += 1
        if len(self._heap) >= 64 and 2 * self._n_cancelled > len(self._heap):
            live = []
            for entry in self._heap:
                if entry[2].cancelled:
                    entry[2]._in_heap = False
                else:
                    live.append(entry)
            heapq.heapify(live)
            self._heap = live
            self._n_cancelled = 0

    # -- scheduling ------------------------------------------------------

    def call_at(self, when: float, callback: Callable[[], None], *,
                name: str = "", transient: bool = False) -> EventHandle:
        """Schedule ``callback`` at absolute simulated time ``when``.

        ``transient=True`` marks the event as fire-and-forget: the
        returned handle goes back to a free list after the callback runs
        and may be reused by a later ``call_at``, so the caller must not
        retain (or cancel) it once it has fired.  Cancelling a pending
        transient handle is safe — cancelled handles are never recycled.
        An infinite ``when`` is rejected: the clock would jump to it and
        never come back.
        """
        if not self.clock.now <= when < _INF:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule event {name!r} at {when!r}, now is {self.clock.now!r}")
        if transient and self._pool:
            handle = self._pool.pop()
            handle.when = when
            handle.callback = callback
            handle.name = name
            handle.cancelled = False
            handle._fired = False
        else:
            handle = EventHandle(when, callback, name=name)
            handle._transient = transient
        self._push(handle, when)
        return handle

    def call_after(self, delay: float, callback: Callable[[], None], *,
                   name: str = "", transient: bool = False) -> EventHandle:
        """Schedule ``callback`` after ``delay`` seconds from now."""
        if not 0 <= delay < _INF:  # also rejects NaN
            raise SimulationError(
                f"delay must be non-negative and finite, got {delay!r} "
                f"for event {name!r}")
        return self.call_at(self.clock.now + delay, callback, name=name,
                            transient=transient)

    def call_every(self, period: float, callback: Callable[[], None], *,
                   first_after: float | None = None, name: str = "") -> EventHandle:
        """Schedule a periodic timer firing every ``period`` seconds.

        ``first_after`` defaults to one full period.  The callback may
        mutate ``handle.period`` between firings (the sys_namespace update
        timer does this to track the Linux scheduling period); the period
        it leaves must stay positive and finite, like ``period`` itself.
        """
        if not 0 < period < _INF:  # also rejects NaN
            raise SimulationError(
                f"timer period must be positive and finite, got {period!r} "
                f"for timer {name!r}")
        delay = period if first_after is None else first_after
        if not 0 <= delay < _INF:
            raise SimulationError(
                f"first_after must be non-negative and finite, got {delay!r} "
                f"for timer {name!r}")
        handle = EventHandle(self.clock.now + delay, callback, period=period, name=name)
        self._push(handle, handle.when)
        return handle

    # -- introspection ---------------------------------------------------

    def next_event_time(self) -> float | None:
        """Absolute time of the earliest pending event, or None if idle."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)[2]._in_heap = False
            self._n_cancelled -= 1
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return len(self._heap) - self._n_cancelled

    def integrity(self) -> dict[str, int]:
        """Heap-sanity snapshot for the invariant checker.

        Recounts the heap directly so the O(1) bookkeeping (``__len__``,
        ``_n_cancelled``, per-handle ``_in_heap`` flags) can be audited
        against ground truth after compactions and cancel/re-arm churn.
        """
        cancelled = live = flag_errors = 0
        for _when, _seq, handle in self._heap:
            if handle.cancelled:
                cancelled += 1
            else:
                live += 1
            if not handle._in_heap:
                flag_errors += 1
        # A pooled handle must be a fired, uncancelled, non-periodic
        # transient with no surviving heap entry; anything else in the
        # free list could be resurrected by reuse.
        pool_errors = sum(
            1 for h in self._pool
            if (h.cancelled or h._in_heap or not h._fired
                or h.period is not None or not h._transient))
        return {
            "heap_size": len(self._heap),
            "live": live,
            "cancelled": cancelled,
            "tracked_cancelled": self._n_cancelled,
            "flag_errors": flag_errors,
            "pooled": len(self._pool),
            "pool_errors": pool_errors,
        }

    # -- execution -------------------------------------------------------

    def run_until(self, deadline: float) -> None:
        """Fire all events with ``when <= deadline`` and advance the clock.

        The clock finishes exactly at ``deadline`` even if the queue
        drains earlier.
        """
        while True:
            nxt = self.next_event_time()
            if nxt is None or nxt > deadline:
                break
            self.step()
        self.clock.advance_to(max(deadline, self.clock.now))

    def step(self) -> bool:
        """Fire the single earliest event.  Returns False if queue empty.

        The one firing path: :meth:`run_until` and the world's main loop
        both fire through here.  It pops straight off the heap, dropping
        cancelled entries on the way, so a caller that has just peeked
        with :meth:`next_event_time` (which leaves a live entry on top)
        touches the heap once per event.
        """
        heap = self._heap
        while heap:
            when, _, handle = heapq.heappop(heap)
            handle._in_heap = False
            if not handle.cancelled:
                break
            self._n_cancelled -= 1
        else:
            return False
        clock = self.clock
        clock.advance_to(when)
        handle._fired = True
        handle.callback()
        # Re-arm periodic timers unless the callback cancelled them.
        period = handle.period
        if period is not None:
            if not handle.cancelled:
                if not 0 < period < _INF:  # also rejects NaN
                    raise SimulationError(
                        f"timer {handle.name!r} left period {period!r}: "
                        f"expected positive and finite")
                handle.when = clock.now + period
                self._push(handle, handle.when)
        elif (handle._transient and not handle.cancelled
                and not handle._in_heap
                and len(self._pool) < self._POOL_MAX):
            # Recycle: fired-and-done one-shots only.  The guards are
            # load-bearing — a cancelled handle may still back a stale
            # heap entry (compaction hasn't swept it yet), and clearing
            # its ``cancelled`` flag on reuse would resurrect that entry
            # at its old deadline.
            handle.callback = None  # type: ignore[assignment]
            self._pool.append(handle)
        return True
