"""The World: a complete simulated host.

Wires the discrete-event engine to the kernel subsystems (scheduler,
memory manager, process table, sysfs) and the paper's components
(ns_monitor, per-container sys_namespaces via the container runtime).

The main loop is a fluid-flow discrete-event simulation: between
events, every runnable thread progresses at the rate assigned by the
CFS model; the loop repeatedly jumps to the earliest of

* the next scheduled event/timer (sys_namespace updates, elastic-heap
  polls, workload phases), or
* the earliest completion of a thread's current work segment,

accruing CPU usage, idle capacity, and load averages over the jump.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.container.runtime import ContainerRuntime
from repro.core.effective_cpu import CpuViewParams
from repro.core.effective_memory import MemViewParams
from repro.core.ns_monitor import NsMonitor
from repro.errors import SimulationError
from repro.kernel.cgroup import Cgroup, CgroupRoot
from repro.kernel.cgroupfs import CgroupFs
from repro.kernel.cpu import HostCpus
from repro.kernel.loadavg import LoadAvgParams, LoadTracker
from repro.kernel.mm.memcg import MemoryManager, MmParams
from repro.kernel.proc import ProcessTable
from repro.kernel.sched.fair import FairScheduler, SchedParams
from repro.kernel.sysfs import HostSysfs, SysfsRegistry
from repro.kernel.task import SimThread, ThreadState
from repro.sim.clock import SimClock
from repro.sim.events import EventLoop
from repro.sim.rng import RngFactory
from repro.units import gib

__all__ = ["World"]

_TIME_EPS = 1e-9

#: Engine names a :class:`World` accepts (see :mod:`repro.kernel.sched.fair`).
ENGINES = ("incremental", "scan")


class World:
    """A simulated host machine."""

    def __init__(self, ncpus: int = 20, memory: int = gib(128), *,
                 sched_params: SchedParams | None = None,
                 mm_params: MmParams | None = None,
                 loadavg_params: LoadAvgParams | None = None,
                 cpu_view_params: CpuViewParams | None = None,
                 mem_view_params: MemViewParams | None = None,
                 sys_ns_update_period: float | None = None,
                 trace: bool = False, seed: int = 0,
                 engine: str = "incremental",
                 sched_policy="default", reclaim_policy="default"):
        if engine not in ENGINES:
            raise SimulationError(
                f"unknown engine {engine!r}: expected 'incremental' "
                f"or 'scan'")
        if sys_ns_update_period is not None and not (
                0 < sys_ns_update_period < math.inf):
            # Checked here, not when the first container arms its timer:
            # by then its cgroup and namespace would already exist.
            raise SimulationError(
                f"sys_ns_update_period must be None or positive and finite, "
                f"got {sys_ns_update_period!r}")
        self.engine = engine
        self.clock = SimClock()
        self.events = EventLoop(self.clock)
        from repro.tracelog import TraceLog
        self.trace = TraceLog(self.clock, enabled=trace)
        self.rng = RngFactory(seed)
        self.host = HostCpus(ncpus)
        self.cgroups = CgroupRoot(self.host)
        self.cgroups.bind_clock(self.clock)
        self.sched = FairScheduler(self.host, self.cgroups, sched_params,
                                   incremental=(engine != "scan"),
                                   policy=sched_policy)
        self.mm = MemoryManager(memory, self.cgroups, mm_params,
                                policy=reclaim_policy)
        self.mm.event_hook = (
            lambda category, message, **fields:
            self.trace.emit(category, message, **fields))
        self.mm.trace = self.trace
        self.loadavg = LoadTracker(loadavg_params or LoadAvgParams())
        self.procs = ProcessTable(self.cgroups.root)
        self.cgroupfs = CgroupFs(self.cgroups)
        self.host_sysfs = HostSysfs(self.host, self.mm, self.loadavg,
                                    scheduler=self.sched)
        self.sysfs_registry = SysfsRegistry(self.host_sysfs)
        self.ns_monitor = NsMonitor(self.cgroups)
        self.cpu_view_params = cpu_view_params or CpuViewParams()
        self.mem_view_params = mem_view_params or MemViewParams()
        #: None = the paper's choice (track the CFS scheduling period).
        self.sys_ns_update_period = sys_ns_update_period
        self.containers = ContainerRuntime(self)
        self.steps = 0
        #: Next-time pair (clock.now, t_event, ttc) computed by
        #: :meth:`_step_clamped` and consumed by the :meth:`step` it
        #: invokes, so clamped stepping does not price the event heap
        #: and the completion index twice per step.
        self._pending_step: tuple[float, float | None, float] | None = None

    # -- thread helpers ------------------------------------------------------

    def spawn_host_thread(self, name: str, cgroup: Cgroup | None = None) -> SimThread:
        """Create a (blocked) thread outside any container."""
        return SimThread(name, cgroup if cgroup is not None else self.cgroups.root,
                         created_at=self.clock.now)

    # -- main loop ------------------------------------------------------------

    def step(self) -> bool:
        """Advance to the next event/completion.  False when nothing to do."""
        if self.sched.dirty:
            self.sched.reallocate()
        now = self.clock.now
        pending = self._pending_step
        if pending is not None and pending[0] == now:
            self._pending_step = None
            t_event, ttc = pending[1], pending[2]
        else:
            t_event = self.events.next_event_time()
            ttc = self.sched.next_completion()
        t_completion = now + ttc if ttc != float("inf") else None
        if t_event is None and t_completion is None:
            return False
        candidates = [t for t in (t_event, t_completion) if t is not None]
        t = min(candidates)
        if t > now:
            self._accrue_to(t)
        # Handle completed segments before timers due at the same instant,
        # then fire every event that is now due.
        self._complete_finished_segments()
        # One heap peek per event: the peek leaves a live entry on top,
        # and ``step`` pops and fires exactly that entry.
        events = self.events
        clock = self.clock
        while True:
            ne = events.next_event_time()
            if ne is None or ne > clock.now + _TIME_EPS:
                break
            events.step()
        self._complete_finished_segments()
        self.steps += 1
        return True

    def _accrue_to(self, t: float) -> None:
        """Advance accounting (CPU usage, loadavg) and the clock to ``t``.

        The single accrual path: every way time passes — a normal step, a
        clamped step hitting its deadline, or ``run(until=...)`` draining
        the tail — routes through here so no interval is ever skipped.
        """
        if self.sched.dirty:
            self.sched.reallocate()
        dt = t - self.clock.now
        if dt <= 0:
            return
        n_run = self.sched.n_runnable_total()
        self.sched.advance(dt)
        self.loadavg.advance(dt, n_run)
        self.clock.advance_to(t)

    def _complete_finished_segments(self) -> None:
        """Fire segment-completion callbacks; callbacks may cascade."""
        for _ in range(10_000):
            if self.sched.dirty:
                self.sched.reallocate()
            finished = self.sched.pop_finished()
            if not finished:
                return
            for t in finished:
                if not t.segment_finished:  # state changed by a prior callback
                    continue
                t._finish_segment()
                cb = t.on_segment_done
                t.on_segment_done = None
                if cb is None:
                    # No continuation: park the thread so it cannot spin.
                    t.block()
                else:
                    cb(t)
                if t.runnable and t.segment_finished:
                    # Still due (a zero-work follow-on segment): re-index
                    # so the next wave picks it up.
                    t.cgroup._enqueue_completion(t)
        raise SimulationError("segment-completion cascade did not converge")

    def run(self, *, until: float | None = None, max_steps: int | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or step budget ends."""
        if until is not None and math.isnan(until):
            raise SimulationError("run(until=nan): the deadline is never reached")
        steps = 0
        while True:
            if until is not None and self.clock.now >= until - _TIME_EPS:
                break
            if max_steps is not None and steps >= max_steps:
                break
            if until is not None:
                # Don't let a far-future event overshoot the deadline:
                # clamp by draining only up to `until`.
                if not self._step_clamped(until):
                    break
            else:
                if not self.step():
                    break
            steps += 1
        if until is not None and self.clock.now < until:
            # Accrue the trailing gap (usage, pressure, loadavg), not just
            # the clock: otherwise the stretch between the last event and
            # the deadline would vanish from every integral.
            self._accrue_to(until)

    def _step_clamped(self, deadline: float) -> bool:
        """Like :meth:`step` but never advances past ``deadline``."""
        if self.sched.dirty:
            self.sched.reallocate()
        now = self.clock.now
        t_event = self.events.next_event_time()
        ttc = self.sched.next_completion()
        t_completion = now + ttc if ttc != float("inf") else None
        candidates = [t for t in (t_event, t_completion) if t is not None]
        if not candidates:
            return False
        t = min(candidates)
        if t > deadline:
            # Advance accounting up to the deadline and stop.
            if deadline > now:
                self._accrue_to(deadline)
            return False
        # Hand the freshly-priced next-times to step(); nothing can
        # invalidate them between here and the step consuming them.
        self._pending_step = (now, t_event, ttc)
        return self.step()

    def run_until(self, predicate: Callable[[], bool], *,
                  timeout: float = 1e7) -> bool:
        """Run until ``predicate()`` is true.  Returns False on timeout/idle."""
        if math.isnan(timeout):
            raise SimulationError("run_until(timeout=nan): the deadline is never reached")
        deadline = self.clock.now + timeout
        while not predicate():
            if self.clock.now >= deadline:
                return False
            if not self._step_clamped(deadline):
                return predicate()
        return True

    # -- policy hot-swap -----------------------------------------------------

    def _policy_ledgers(self) -> dict:
        """Conserved quantities a policy swap must not perturb.

        Exact values (float bit-patterns and integer byte counts), not
        tolerances: the swap itself does no accrual, so even the last
        ulp of every ledger must survive the handoff.
        """
        groups = sorted(self.cgroups.walk(), key=lambda c: c.seq)
        return {
            "elapsed": self.sched.elapsed,
            "conservation_error": self.sched.conservation_error(),
            "cpu_time": sum(cg.total_cpu_time for cg in groups)
                        + self.cgroups.retired_cpu_time,
            "throttled_time": sum(cg.throttled_time for cg in groups)
                              + self.cgroups.retired_throttled_time,
            "charge_total": sum(cg.memory.charge_total for cg in groups),
            "uncharge_total": sum(cg.memory.uncharge_total for cg in groups),
            "resident": sum(cg.memory.resident for cg in groups),
            "swapped": sum(cg.memory.swapped for cg in groups),
            "swap_free": self.mm.swap.free,
        }

    def swap_policy(self, *, sched_policy=None, reclaim_policy=None) -> dict:
        """Hot-swap kernel policies mid-simulation (plugsched-style).

        Either side may be swapped independently; ``None`` leaves it
        alone.  The handoff is: resolve any pending reallocation under
        the *old* policy, move policy-internal state across
        (``export_state``/``import_state``), re-solve the whole host
        under the new policy, and assert that every conservation ledger
        (CPU time, throttle time, charge/uncharge totals, residency,
        swap occupancy) is bit-exactly what it was — a swap decides the
        *future*, never rewrites the past.

        Returns the handoff record; raises :class:`PolicyError` if a
        ledger moved.
        """
        from repro.errors import PolicyError
        if self.sched.dirty:
            self.sched.reallocate()
        before = self._policy_ledgers()
        handoff: dict = {"t": self.clock.now}
        if sched_policy is not None:
            handoff["sched"] = self.sched.set_policy(sched_policy)
            self.sched.reallocate()
        if reclaim_policy is not None:
            handoff["reclaim"] = self.mm.set_policy(reclaim_policy)
        after = self._policy_ledgers()
        for key, value in before.items():
            if after[key] != value:
                raise PolicyError(
                    f"policy swap perturbed ledger {key!r}: "
                    f"{value!r} -> {after[key]!r}")
        self.trace.emit(
            "policy.swap", "kernel policy hot-swap",
            sched=handoff.get("sched", {}).get("to"),
            reclaim=handoff.get("reclaim", {}).get("to"))
        return handoff

    # -- introspection -------------------------------------------------------

    def invariant_snapshot(self) -> dict:
        """Deterministic state digest for the invariant checker / differ.

        Plain dicts of floats/ints only, assembled in canonical order
        (cgroups by creation ``seq``, containers by name), so two worlds
        driven through the same scenario must produce *equal* snapshots
        — any mismatch is an engine divergence.  Reading the snapshot
        resolves a pending reallocation first (idempotent in both engine
        modes) but perturbs no accounting.
        """
        if self.sched.dirty:
            self.sched.reallocate()
        groups = []
        for cg in sorted(self.cgroups.walk(), key=lambda c: c.seq):
            mem = cg.memory
            groups.append({
                "path": cg.path,
                "cpu_rate": cg.cpu_rate,
                "total_cpu_time": cg.total_cpu_time,
                "progress_acc": cg.progress_acc,
                "occupancy_acc": cg.occupancy_acc,
                "n_runnable": cg.n_runnable(),
                "n_threads": len(cg.threads),
                "shares": cg.cpu.shares,
                "quota_cores": cg.quota_cores,
                "cpuset_size": len(cg.effective_cpuset()),
                "throttled_time": cg.throttled_time,
                "throttled_wall": cg.throttled_wall,
                "resident": mem.resident,
                "swapped": mem.swapped,
                "charge_total": mem.charge_total,
                "uncharge_total": mem.uncharge_total,
                "hard_limit": mem.hard_limit,
                "oom_killed": mem.oom_killed,
                "psi_cpu_some": cg.pressure.cpu.some_total,
                "psi_cpu_full": cg.pressure.cpu.full_total,
                "psi_mem_some": cg.pressure.memory.some_total,
                "psi_mem_full": cg.pressure.memory.full_total,
            })
        containers = []
        for name in sorted(self.containers.containers):
            c = self.containers.get(name)
            ns = c.sys_ns
            containers.append({
                "name": name,
                "e_cpu": ns.e_cpu,
                "e_mem": ns.e_mem,
                "bound_lower": ns.bounds.lower,
                "bound_upper": ns.bounds.upper,
                "soft_limit": ns.soft_limit,
                "hard_limit": ns.hard_limit,
            })
        return {
            "now": self.clock.now,
            "steps": self.steps,
            "ncpus": self.host.ncpus,
            "sched": {
                "elapsed": self.sched.elapsed,
                "total_allocated": self.sched.total_allocated(),
                "total_idle_time": self.sched.total_idle_time,
                "retired_cpu_time": self.cgroups.retired_cpu_time,
                "conservation_error": self.sched.conservation_error(),
                "n_runnable": self.sched.n_runnable_total(),
            },
            "mm": {
                "total_resident": self.mm.total_resident,
                "free": self.mm.free,
                "available": self.mm.available_capacity,
                "swap_capacity": self.mm.swap.capacity,
                "swap_free": self.mm.swap.free,
                "oom_kills": self.mm.oom_kills,
                "kswapd_runs": self.mm.kswapd_runs,
                "direct_reclaims": self.mm.direct_reclaims,
                "reclaiming": self.mm.reclaiming,
            },
            "loadavg": [self.loadavg.load_1, self.loadavg.load_5,
                        self.loadavg.load_15],
            "events": self.events.integrity(),
            "groups": groups,
            "containers": containers,
        }

    # -- convenience ---------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now

    def n_live_threads(self) -> int:
        return sum(1 for cg in self.cgroups.walk()
                   for t in cg.threads if t.state is not ThreadState.EXITED)

    def describe(self) -> str:
        """A human-readable snapshot of the host and every container.

        The simulated analogue of glancing at ``docker stats`` plus
        ``free -h`` — useful in examples and when debugging experiments.
        """
        from repro.units import fmt_bytes, fmt_time
        if self.sched.dirty:
            self.sched.reallocate()
        lines = [
            f"world @ {fmt_time(self.clock.now)}: {self.host.ncpus} CPUs "
            f"({self.sched.idle_capacity():.1f} idle), "
            f"{fmt_bytes(self.mm.free)} free of "
            f"{fmt_bytes(self.mm.available_capacity)}, "
            f"load {self.loadavg.load_1:.1f}/{self.loadavg.load_5:.1f}/"
            f"{self.loadavg.load_15:.1f}",
        ]
        for c in self.containers:
            mem = c.cgroup.memory
            swap = f" (+{fmt_bytes(mem.swapped)} swapped)" if mem.swapped else ""
            lines.append(
                f"  {c.name}: E_CPU={c.e_cpu} "
                f"rate={c.cgroup.cpu_rate:.2f} cores, "
                f"runnable={c.cgroup.n_runnable()}, "
                f"mem={fmt_bytes(mem.resident)}{swap}, "
                f"E_MEM={fmt_bytes(c.e_mem)}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<World t={self.clock.now:.3f}s cpus={self.host.ncpus} "
                f"containers={len(self.containers)}>")
