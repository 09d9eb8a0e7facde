"""Machine speed, read off a fixed reference kernel next to each sample.

The benchmark runs on a few cores of a shared host whose speed is not
steady: a pure-Python loop runs at one of two speeds, about 2x apart,
and the host switches between them every few to few tens of seconds.
A median of raw host seconds over a 30-second window therefore moves by
up to 30% from one window to the next with the program unchanged.

Every timed sample is bracketed by two readings of :func:`kernel` and
its host seconds are scaled by ``NOMINAL_S / mean(readings)``: the time
the sample would have taken on a machine that runs one kernel pass in
:data:`NOMINAL_S`.  The kernel uses nothing under ``src/``, so a change
to the program never moves it; only the machine's speed does.
"""

from __future__ import annotations

import heapq
import random
import time

__all__ = ["NOMINAL_S", "kernel", "reading", "Bracket"]

#: Host seconds one :func:`kernel` pass takes on the machine the bounds
#: were set on (a 2-vCPU VM in its fast state).  Scaled times are host
#: seconds at that speed; the constant only sets their scale.
NOMINAL_S = 0.015
#: Kernel passes per reading.
PASSES = 3
#: (tasks, events) of the loops one kernel pass runs: one whose data
#: stays in the first-level caches and one whose data does not.  Scaled
#: by the small loop alone, ``serve`` and ``colocate`` spread more from
#: run to run; by the large loop alone, ``cluster`` did.
LOOPS = ((64, 6000), (8192, 4000))


class _Task:
    __slots__ = ("rate", "left")

    def __init__(self, rate: float):
        self.rate = rate
        self.left = 1.0


def kernel() -> float:
    """A fixed pure-Python event loop: heap, dict, slotted objects, floats.

    It exercises the interpreter the way the simulator's event loop
    does: pop the earliest event, update the task it names, push the
    next one.  Returns a checksum so the work cannot be skipped.
    """
    total = 0.0
    for n_tasks, n_events in LOOPS:
        rng = random.Random(7)
        tasks = {i: _Task(rng.random() + 0.1) for i in range(n_tasks)}
        heap = [(rng.random(), i) for i in range(n_tasks)]
        heapq.heapify(heap)
        for _ in range(n_events):
            t, key = heapq.heappop(heap)
            task = tasks[key]
            share = min(1.0, task.rate * 0.5)
            task.left -= share * 0.01
            if task.left <= 0:
                task.left = 1.0
            total += share
            heapq.heappush(heap, (t + rng.expovariate(task.rate), key))
    return total


def reading() -> float:
    """Mean host seconds per pass over :data:`PASSES` kernel passes."""
    t0 = time.perf_counter()
    for _ in range(PASSES):
        kernel()
    return (time.perf_counter() - t0) / PASSES


class Bracket:
    """Reference readings taken right before and right after one sample.

    ``with Bracket() as b: ...`` reads the kernel on entry and on exit;
    :meth:`scale` then turns host seconds measured inside into host
    seconds at :data:`NOMINAL_S` speed.
    """

    def __enter__(self) -> "Bracket":
        self.before = reading()
        return self

    def __exit__(self, *exc) -> None:
        self.after = reading()

    @property
    def reference_s(self) -> float:
        return (self.before + self.after) / 2

    def scale(self, host_s: float) -> float:
        return host_s * NOMINAL_S / self.reference_s
