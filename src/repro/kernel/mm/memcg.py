"""The memory manager: per-cgroup charging with limits, kswapd, and swap.

This is the piece of the simulated kernel that Algorithm 2 (effective
memory) observes: system-wide free memory, per-cgroup usage, hard/soft
limits, and watermark-driven reclaim.

Charging rules (mirroring the cgroup-v1 memory controller as described
in §2.1/§3.1 of the paper):

1. A cgroup's **resident** memory can never exceed its hard limit
   (``memory.limit_in_bytes``); charges beyond it push the group's own
   pages to swap ("the container either is killed or starts swapping").
   If swap is exhausted the charging cgroup is OOM-killed.
2. When host free memory falls below the **low** watermark, background
   reclaim (kswapd) swaps out pages of cgroups above their **soft**
   limits until free memory recovers to the **high** watermark.
3. When free memory falls below the **min** watermark, direct reclaim
   takes pages from any cgroup proportionally to resident size.
4. When pressure clears (free above high + hysteresis), swapped pages of
   cgroups with headroom fault back in.

Swapped bytes impose a progress-rate penalty on the cgroup's threads
(see :mod:`repro.kernel.mm.swap`), which the scheduler folds into thread
progress rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import MemoryError_, OutOfMemoryError
from repro.kernel.cgroup import Cgroup, CgroupEventKind, CgroupRoot
from repro.kernel.mm.swap import SwapDevice, SwapParams, swap_slowdown_multiplier
from repro.kernel.mm.watermarks import Watermarks

if TYPE_CHECKING:  # pragma: no cover
    from repro.policy.base import ReclaimPolicy

__all__ = ["MmParams", "MemoryManager"]


@dataclass(frozen=True)
class MmParams:
    """Memory-manager tunables."""

    #: Watermark fractions of total memory.
    min_watermark_frac: float = 0.008
    low_watermark_frac: float = 0.015
    high_watermark_frac: float = 0.03
    #: Memory the kernel itself keeps (never allocatable to cgroups).
    kernel_reserved: int = 512 * 1024 * 1024
    #: Swap capacity as a multiple of total memory.
    swap_factor: float = 2.0
    swap: SwapParams = field(default_factory=SwapParams)


class MemoryManager:
    """Byte-granular model of the kernel memory subsystem."""

    def __init__(self, total: int, cgroups: CgroupRoot,
                 params: MmParams | None = None, *,
                 policy: "ReclaimPolicy | str | None" = None):
        from repro.policy import make_reclaim_policy
        self.policy = make_reclaim_policy(
            "default" if policy is None else policy)
        if total <= 0:
            raise MemoryError_(f"total memory must be positive, got {total}")
        self.total = int(total)
        self.cgroups = cgroups
        self.params = params or MmParams()
        if self.params.kernel_reserved >= self.total:
            raise MemoryError_("kernel_reserved exceeds total memory")
        self.watermarks = Watermarks.for_total(
            self.total,
            min_frac=self.params.min_watermark_frac,
            low_frac=self.params.low_watermark_frac,
            high_frac=self.params.high_watermark_frac,
        )
        self.swap = SwapDevice(capacity=int(self.total * self.params.swap_factor))
        self.kswapd_runs = 0
        self.direct_reclaims = 0
        self.oom_kills = 0
        #: Optional tracepoint sink: ``hook(category, message, **fields)``.
        #: The world installs its TraceLog here (mm has no clock of its
        #: own, so timestamps are the sink's job).
        self.event_hook = None
        #: Optional TraceLog for reclaim-episode spans (set by the world).
        self.trace = None
        self._reclaim_span = 0
        #: True while kswapd is actively reclaiming (Algorithm 2 resets
        #: effective memory to the soft limit in that state).
        self.reclaiming = False
        #: Running sum of every group's resident bytes.  Residency is
        #: integer-valued and mutated only by the four charge/swap paths
        #: below, so the counter is exact and replaces the full
        #: hierarchy walk ``total_resident`` used to cost on every read
        #: (the free-memory check on each charge).
        self._total_resident = sum(cg.memory.resident
                                   for cg in cgroups.walk())
        # Lowering memory.limit_in_bytes below current residency must
        # reclaim the excess, as Linux does on the limit write itself —
        # otherwise `resident <= hard_limit` silently stops holding.
        cgroups.subscribe(self._on_cgroup_event)

    def _on_cgroup_event(self, event) -> None:
        if event.kind is CgroupEventKind.MEMORY_CHANGED:
            self.enforce_limit(event.cgroup)

    # -- global accounting ------------------------------------------------

    def _all_groups(self) -> list[Cgroup]:
        return [cg for cg in self.cgroups.walk()]

    @property
    def total_resident(self) -> int:
        return self._total_resident

    def audit_resident(self) -> int:
        """Walk-computed residency minus the running counter (must be 0)."""
        return (sum(cg.memory.resident for cg in self._all_groups())
                - self._total_resident)

    @property
    def free(self) -> int:
        """Allocatable free memory on the host."""
        return self.total - self.params.kernel_reserved - self._total_resident

    @property
    def available_capacity(self) -> int:
        """Memory usable by cgroups (total minus kernel reservation)."""
        return self.total - self.params.kernel_reserved

    # -- public charging API -----------------------------------------------

    def charge(self, cg: Cgroup, nbytes: int) -> None:
        """Charge ``nbytes`` of new memory to ``cg``.

        Raises :class:`OutOfMemoryError` if the bytes cannot be placed in
        residency or swap (the caller decides what "killed" means — e.g.
        the JVM surfaces it as a crashed benchmark run).
        """
        if nbytes < 0:
            raise MemoryError_(f"cannot charge negative bytes: {nbytes}")
        if cg.destroyed:
            # A charge landing after teardown would live outside the
            # hierarchy walk: invisible to meminfo, permanent drift.
            raise MemoryError_(
                f"cannot charge {nbytes} bytes to destroyed cgroup {cg.path!r}")
        if nbytes == 0:
            return
        mem = cg.memory
        hard = mem.hard_limit

        # Rule 1: hard limit. Resident may only grow to the hard limit;
        # the remainder of the charge goes straight to swap.
        resident_room = max(0, int(min(hard, float(self.available_capacity))) - mem.resident)
        to_resident = min(nbytes, resident_room)
        to_swap = nbytes - to_resident

        # Rule 2/3: make space for the resident part.
        if to_resident > 0:
            self._ensure_free(to_resident, charger=cg)
            shortfall = to_resident - max(0, self.free)
            if shortfall > 0:
                # Host genuinely cannot hold it; spill the shortfall to swap.
                to_resident -= shortfall
                to_swap += shortfall

        if to_swap > 0:
            granted = self.swap.reserve(to_swap)
            if granted < to_swap:
                self.swap.release(granted)
                self._oom_kill(cg, nbytes)
            mem.swapped += to_swap
            mem.swapout_total += to_swap
        mem.resident += to_resident
        self._total_resident += to_resident
        mem.charge_total += nbytes
        self._after_change(cg)

    def uncharge(self, cg: Cgroup, nbytes: int) -> None:
        """Release ``nbytes`` previously charged to ``cg``.

        Swapped bytes are released first (they are the coldest), then
        resident bytes.
        """
        if nbytes < 0:
            raise MemoryError_(f"cannot uncharge negative bytes: {nbytes}")
        mem = cg.memory
        if nbytes > mem.usage_in_bytes:
            raise MemoryError_(
                f"uncharging {nbytes} from {cg.path!r} which holds only "
                f"{mem.usage_in_bytes}")
        from_swap = min(nbytes, mem.swapped)
        if from_swap:
            self.swap.release(from_swap)
            mem.swapped -= from_swap
        mem.resident -= nbytes - from_swap
        self._total_resident -= nbytes - from_swap
        mem.uncharge_total += nbytes
        self._after_change(cg)

    def uncharge_all(self, cg: Cgroup) -> None:
        """Release every byte charged to ``cg`` (container teardown).

        Also drops the runtime's hot-set hint: it described a working set
        that no longer exists, and leaving it behind would bend the swap
        slowdown computed by the closing ``refresh_pressure``.
        """
        self.uncharge(cg, cg.memory.usage_in_bytes)
        cg.memory.hot_bytes = None
        self.refresh_pressure(cg)

    def enforce_limit(self, cg: Cgroup) -> None:
        """Reclaim a cgroup's excess after its hard limit was lowered.

        Mirrors writing ``memory.limit_in_bytes`` below usage on Linux:
        the write itself pushes the excess out to swap, OOM-killing the
        group if swap cannot absorb it.
        """
        mem = cg.memory
        excess = mem.resident - int(min(mem.hard_limit, float(mem.resident)))
        if excess <= 0:
            return
        granted = self._swap_out(cg, excess)
        if granted < excess:
            self._oom_kill(cg, excess)

    # -- reclaim machinery ------------------------------------------------------

    def _ensure_free(self, need: int, *, charger: Cgroup) -> None:
        """Run kswapd/direct reclaim so ``need`` bytes can become resident."""
        wm = self.watermarks
        projected = self.free - need
        if projected >= wm.low:
            return
        # Background reclaim: bring free memory back up to high.
        self.kswapd_runs += 1
        self._set_reclaiming(True)
        target = (wm.high + need) - self.free
        plan = self._policy_plan("background", self._all_groups(), target)
        if self.event_hook:
            self.event_hook("mm.kswapd", "background reclaim",
                            free=self.free, need=need,
                            victims=[cg.path for cg, _ in plan],
                            reclaiming=sum(take for _, take in plan))
        for victim, take in plan:
            self._swap_out(victim, take)
        projected = self.free - need
        if projected < wm.min:
            # Direct reclaim: indiscriminate, proportional to residency.
            self.direct_reclaims += 1
            target = (wm.min + need) - self.free
            others = [g for g in self._all_groups() if g is not charger]
            plan = self._policy_plan("direct", others, target)
            if self.event_hook:
                self.event_hook("mm.direct_reclaim", "below min watermark",
                                free=self.free, need=need,
                                victims=[cg.path for cg, _ in plan])
            for victim, take in plan:
                self._swap_out(victim, take)
        if self.free >= wm.high:
            self._set_reclaiming(False)

    def _policy_plan(self, kind: str, groups: list[Cgroup],
                     need: int) -> list[tuple[Cgroup, int]]:
        """Policy indirection for reclaim planning.

        A separate method (rather than inline ``self.policy.plan_*``
        calls) so the profiler can wrap it; the wrap survives
        :meth:`set_policy` because the indirection, not the policy
        instance, carries the instrumentation.
        """
        if kind == "background":
            return self.policy.plan_background(groups, need)
        return self.policy.plan_direct(groups, need)

    def set_policy(self, policy: "ReclaimPolicy | str") -> dict:
        """Hot-swap the reclaim policy (plugsched-style).

        Same handoff contract as the scheduler: the outgoing policy
        exports its state, the incoming one imports what it understands,
        and ledgers (charge/uncharge totals, swap occupancy, residency)
        are untouched — :meth:`repro.world.World.swap_policy` asserts
        that.  Returns the handoff record ``{"from", "to", "state"}``.
        """
        from repro.policy import make_reclaim_policy
        new = make_reclaim_policy(policy)
        old = self.policy
        state = old.export_state()
        new.import_state(state)
        self.policy = new
        return {"from": old.name, "to": new.name, "state": state}

    def _set_reclaiming(self, active: bool) -> None:
        """Flip the kswapd-active flag, spanning each reclaim episode.

        An episode runs from the first charge that dips below the low
        watermark until free memory recovers to high — possibly across
        many charges and swap-ins — so its span duration is the length
        of the pressured stretch, not of one reclaim pass.
        """
        if active == self.reclaiming:
            return
        self.reclaiming = active
        if self.trace is None:
            return
        if active:
            self._reclaim_span = self.trace.begin_span(
                "mm.reclaim", "reclaim episode", free=self.free)
        else:
            self.trace.end_span(self._reclaim_span, free=self.free,
                                kswapd_runs=self.kswapd_runs,
                                direct_reclaims=self.direct_reclaims)
            self._reclaim_span = 0

    def _swap_out(self, cg: Cgroup, nbytes: int) -> int:
        """Move up to ``nbytes`` of ``cg``'s resident memory to swap."""
        mem = cg.memory
        nbytes = min(nbytes, mem.resident)
        granted = self.swap.reserve(nbytes)
        mem.resident -= granted
        self._total_resident -= granted
        mem.swapped += granted
        mem.swapout_total += granted
        self._after_change(cg)
        return granted

    def _swap_in(self, cg: Cgroup, nbytes: int) -> int:
        """Fault up to ``nbytes`` of ``cg``'s swapped memory back in."""
        mem = cg.memory
        hard = mem.hard_limit
        room = max(0, int(min(hard, float(mem.resident + self.free))) - mem.resident)
        nbytes = min(nbytes, mem.swapped, room)
        if nbytes <= 0:
            return 0
        self.swap.release(nbytes)
        mem.swapped -= nbytes
        mem.resident += nbytes
        self._total_resident += nbytes
        mem.swapin_total += nbytes
        self._after_change(cg)
        return nbytes

    def rebalance(self) -> None:
        """Fault swapped pages back in while pressure is clearly gone.

        Hysteresis: swap-in only while free memory stays above
        ``high + (high - low)``, so kswapd and swap-in do not oscillate.
        """
        wm = self.watermarks
        threshold = wm.high + (wm.high - wm.low)
        for cg in self._all_groups():
            mem = cg.memory
            if mem.swapped <= 0:
                continue
            headroom = self.free - threshold
            if headroom <= 0:
                break
            want = min(mem.swapped, headroom)
            self._swap_in(cg, want)
        if self.free >= wm.high:
            self._set_reclaiming(False)

    # -- pressure propagation -----------------------------------------------------

    def refresh_pressure(self, cg: Cgroup) -> None:
        """Recompute a cgroup's swap slowdown (after a hot-bytes hint change)."""
        self._after_change(cg)

    def _after_change(self, cg: Cgroup) -> None:
        mem = cg.memory
        new_mult = swap_slowdown_multiplier(mem.resident, mem.swapped,
                                            self.params.swap.penalty,
                                            mem.hot_bytes)
        if abs(new_mult - cg.progress_multiplier) > 1e-12:
            cg.progress_multiplier = new_mult
            self.cgroups.scheduler_dirty(cg)

    def _oom_kill(self, cg: Cgroup, requested: int) -> None:
        # Victim selection is a policy decision (all built-in policies
        # kill the charger, mirroring memcg-local OOM).
        victim = self.policy.oom_victim(cg, self._all_groups())
        self.oom_kills += 1
        victim.memory.oom_killed = True
        if self.event_hook:
            self.event_hook("mm.oom_kill", f"cgroup {victim.path} OOM-killed",
                            requested=requested, free=self.free,
                            swap_free=self.swap.free)
        raise OutOfMemoryError(
            f"cgroup {victim.path!r} OOM-killed charging {requested} bytes "
            f"(free={self.free}, swap_free={self.swap.free})",
            victim=victim.path)

    # -- introspection ---------------------------------------------------------------

    def meminfo(self) -> dict[str, int]:
        """A ``/proc/meminfo``-flavoured snapshot."""
        return {
            "MemTotal": self.total,
            "MemFree": self.free,
            "MemAvailable": self.free,
            "SwapTotal": self.swap.capacity,
            "SwapFree": self.swap.free,
        }
