"""The per-container ``sys_namespace``.

This is the paper's central data structure (§3.1): a namespace attached
to each container that maintains the container's **effective CPU** and
**effective memory**.  It is updated from two directions:

* ``ns_monitor`` pushes new static bounds / limits whenever cgroup
  settings change (container churn, share/limit edits);
* a **low-resolution timer** fires every CFS scheduling period and runs
  the dynamic parts of Algorithms 1 and 2 against the scheduler's and
  memory manager's accounting.

The namespace is owned by the container's init process; ownership
transfers to the post-exec init via the execve hook in
:meth:`repro.kernel.proc.ProcessTable.exec`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.effective_cpu import (CpuBounds, CpuViewParams, cpu_bounds,
                                      step_effective_cpu)
from repro.core.effective_memory import (MemorySample, MemViewParams,
                                         step_effective_memory)
from repro.kernel.cgroup import Cgroup
from repro.kernel.namespace import Namespace, NamespaceKind
from repro.kernel.sched.period import scheduling_period

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.mm.memcg import MemoryManager
    from repro.kernel.proc import Process
    from repro.kernel.sched.fair import FairScheduler
    from repro.sim.clock import SimClock
    from repro.sim.events import EventHandle, EventLoop

__all__ = ["SysNamespace"]

#: Builds a ``MemorySample`` straight from its field tuple, skipping the
#: named tuple's Python-level ``__new__``: one sample is built per
#: timer firing, and that wrapper is most of its cost.
_new_sample = tuple.__new__


class SysNamespace(Namespace):
    """Effective-resource state for one container."""

    def __init__(self, cgroup: Cgroup, scheduler: "FairScheduler",
                 mm: "MemoryManager", *, owner: "Process | None" = None,
                 cpu_params: CpuViewParams | None = None,
                 mem_params: MemViewParams | None = None,
                 update_period: float | None = None,
                 record_history: bool = False, trace=None):
        super().__init__(NamespaceKind.SYS, owner)
        self.cgroup = cgroup
        self.scheduler = scheduler
        self.mm = mm
        self.cpu_params = cpu_params or CpuViewParams()
        self.mem_params = mem_params or MemViewParams()
        # Static CPU bounds (refreshed by ns_monitor).
        self.bounds = CpuBounds(lower=1, upper=scheduler.host.ncpus)
        self.e_cpu = 1
        # Memory limits capped at host capacity (refreshed by ns_monitor).
        self.soft_limit = 0
        self.hard_limit = 0
        self.e_mem = 0
        self.refresh_memory_limits()
        # Window bookmarks for the update timer.
        self._last_cpu_time = cgroup.total_cpu_time
        self._last_idle_time = scheduler.total_idle_time
        self._pfree = mm.free
        self._pmem = cgroup.memory.usage_in_bytes
        self._last_kswapd_runs = mm.kswapd_runs
        self._timer: EventHandle | None = None
        self._clock: SimClock | None = None
        #: Period the last ``update`` ran with; ``_on_timer`` re-arms
        #: the timer with it.
        self._period = 0.0
        #: Fixed update period override (None = track the CFS scheduling
        #: period, the paper's choice; used by the update-period ablation).
        self.update_period_override = update_period
        self.update_count = 0
        self.record_history = record_history
        self.history: list[tuple[float, int, int]] = []
        #: Optional TraceLog for emitting view-change events.
        self.trace = trace

    # -- bounds / limits (ns_monitor entry points) --------------------------

    def refresh_cpu_bounds(self, total_shares: int) -> None:
        """Recompute LOWER/UPPER (Algorithm 1 lines 4–5) and clamp E_CPU.

        ``total_shares`` is ``sum(w_j)`` over every registered namespace.
        """
        self.bounds = cpu_bounds(self.cgroup, total_shares,
                                 self.scheduler.host.ncpus)
        self.e_cpu = self.bounds.clamp(self.e_cpu)

    def initialize_cpu(self, total_shares: int) -> None:
        """Set E_CPU to the lower bound (Algorithm 1 line 6)."""
        self.refresh_cpu_bounds(total_shares)
        self.e_cpu = self.bounds.lower

    def refresh_memory_limits(self) -> None:
        """Re-read soft/hard limits, capping at host capacity.

        Containers with no configured limits behave as if limited by the
        physical machine — the resource view then simply reports host
        capacity, which is the correct degenerate case.
        """
        capacity = self.mm.available_capacity
        hard = self.cgroup.memory.hard_limit
        soft = self.cgroup.memory.soft_limit
        self.hard_limit = int(min(hard, capacity))
        self.soft_limit = int(min(soft, self.hard_limit))
        if self.e_mem == 0:
            self.e_mem = self.soft_limit  # Algorithm 2 line 3
        else:
            self.e_mem = max(min(self.e_mem, self.hard_limit), 0)

    # -- the periodic update (§3.2's low-resolution timer) --------------------

    def start_timer(self, events: "EventLoop") -> None:
        """Arm the update timer at the current CFS scheduling period."""
        if self._timer is not None and self._timer.active:
            return
        self._clock = events.clock
        period = self._current_period()
        self._timer = events.call_every(period, self._on_timer,
                                        name=f"sys_ns:{self.cgroup.name}")

    def stop_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _current_period(self) -> float:
        if self.update_period_override is not None:
            return self.update_period_override
        return scheduling_period(self.scheduler.n_runnable_total())

    def _on_timer(self) -> None:
        self.update(self._clock.now)
        # Track the Linux scheduling period as the task population
        # changes.  ``update`` already read it, and nothing it does can
        # move the runnable count, so its reading is the current one.
        timer = self._timer
        if timer is not None:
            timer.period = self._period

    def update(self, now: float) -> None:
        """Run one step of Algorithms 1 and 2 against kernel accounting.

        This is the body of every timer firing, so each cgroup,
        scheduler and memory-manager field is read once into a local.
        """
        self.update_count += 1
        cgroup = self.cgroup
        mm = self.mm
        prev_e_cpu = self.e_cpu
        prev_e_mem = self.e_mem
        # ---- effective CPU (Algorithm 1, lines 8-17) ----
        cpu_time = cgroup.total_cpu_time
        idle_time = self.scheduler.total_idle_time
        self._period = period = self._current_period()
        # Positional arguments: CPython does not specialise calls with
        # keyword arguments, and these run once per timer firing.
        e_cpu = step_effective_cpu(
            prev_e_cpu, self.bounds, cpu_time - self._last_cpu_time,
            prev_e_cpu * period, idle_time - self._last_idle_time,
            self.cpu_params)
        self._last_cpu_time = cpu_time
        self._last_idle_time = idle_time
        # ---- effective memory (Algorithm 2) ----
        cfree = mm.free
        cmem = cgroup.memory.usage_in_bytes
        kswapd_runs = mm.kswapd_runs
        watermarks = mm.watermarks
        e_mem = step_effective_memory(
            prev_e_mem, self.soft_limit, self.hard_limit,
            _new_sample(MemorySample, (cfree, self._pfree, cmem, self._pmem)),
            watermarks.low, watermarks.high,
            kswapd_runs > self._last_kswapd_runs or mm.reclaiming,
            self.mem_params)
        self._last_kswapd_runs = kswapd_runs
        self._pfree = cfree
        self._pmem = cmem
        self.e_cpu = e_cpu
        self.e_mem = e_mem
        if self.record_history:
            self.history.append((now, e_cpu, e_mem))
        if self.trace is not None and (e_cpu != prev_e_cpu
                                       or e_mem != prev_e_mem):
            self.trace.emit("view.update", cgroup.name,
                            e_cpu=e_cpu, e_mem=e_mem)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SysNamespace {self.cgroup.name!r} e_cpu={self.e_cpu} "
                f"e_mem={self.e_mem} bounds=[{self.bounds.lower},{self.bounds.upper}]>")
