"""The stock kernel policy: CFS-style fair sharing + memcg reclaim.

``DefaultSchedPolicy`` is the exact allocation arithmetic the engine
shipped with before the policy boundary existed — weighted max-min
waterfill capped by ``min(quota, |cpuset|, n_threads)``, context-switch
and interference efficiency penalties, quota-clipping throttle
accounting.  The golden-trace fixture (``tests/golden/``) pins it:
every operation here must stay byte-identical to the pre-refactor
``FairScheduler._solve_component``, which is why the body is a
statement-for-statement transplant rather than a cleaner rewrite.

``DefaultReclaimPolicy`` delegates to the stateless kswapd planners
(soft-limit-overage-proportional background reclaim, residency-
proportional direct reclaim) and OOM-kills the charging cgroup.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernel.mm.kswapd import plan_background_reclaim, plan_direct_reclaim
from repro.kernel.sched.fair import GroupAlloc, component_pressures, waterfill
from repro.policy.base import ReclaimPolicy, SchedPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.cgroup import Cgroup
    from repro.kernel.sched.fair import SchedParams

__all__ = ["DefaultSchedPolicy", "DefaultReclaimPolicy"]


class DefaultSchedPolicy(SchedPolicy):
    """Fluid CFS: shares-weighted waterfill under quota/cpuset/demand caps."""

    name = "default"
    #: Stateless: allocations depend only on the domain-solve inputs,
    #: so the scheduler may memoize per-domain solves.
    pure = True

    def solve(self, members: "list[Cgroup]", capacity: float,
              params: "SchedParams") -> list[GroupAlloc]:
        allocs: list[GroupAlloc] = []
        for cg in members:
            n = cg.n_runnable()
            mask_size = float(len(cg.effective_cpuset()))
            quota = cg.quota_cores
            g = GroupAlloc(cgroup=cg, n_threads=n,
                           weight=float(cg.cpu.shares),
                           cap=min(quota, mask_size, float(n)),
                           demand=min(float(n), mask_size), quota=quota)
            allocs.append(g)
        rates = waterfill([g.weight for g in allocs],
                          [g.cap for g in allocs], capacity)
        for g, rate in zip(allocs, rates):
            g.rate = rate
        kappa = params.csw_overhead
        gamma = params.interference
        eps = params.eps
        for g, pressure in zip(allocs, component_pressures(allocs)):
            rate = g.rate
            if rate > eps and g.n_threads > rate:
                oversub = g.n_threads / rate - 1.0
                g.efficiency = 1.0 / (1.0 + kappa * oversub)
            else:
                g.efficiency = 1.0
            if pressure > 1.0:
                g.efficiency *= 1.0 / (1.0 + gamma * (pressure - 1.0))
            g.pressure = pressure
        return allocs

    #: The clip below reads only row fields, so the scheduler may
    #: evaluate it once per publication instead of every accrual step.
    throttle_static = True

    def throttle_accrue(self, g: GroupAlloc, dt: float) -> None:
        # Throttling: demand the quota clipped (the fluid analogue of
        # cpu.stat's throttled_time).
        quota = g.quota
        if quota != float("inf"):
            clipped = max(0.0, g.demand - quota)
            if clipped > 0.0 and g.rate >= quota - 1e-9:
                cg = g.cgroup
                cg.throttled_time += clipped * dt
                cg.throttled_wall += dt

    def throttle_clip(self, g: GroupAlloc) -> float:
        # No inf test needed: an unlimited quota leaves clipped at -inf.
        quota = g.quota
        clipped = g.demand - quota
        if clipped > 0.0 and g.rate >= quota - 1e-9:
            return clipped
        return 0.0

    def rate_cap(self, quota_cores: float, cpuset_size: float) -> float:
        return min(quota_cores, cpuset_size)


class DefaultReclaimPolicy(ReclaimPolicy):
    """memcg-style reclaim: soft-limit overage first, then residency."""

    name = "default"

    def plan_background(self, groups: "list[Cgroup]",
                        need: int) -> "list[tuple[Cgroup, int]]":
        return plan_background_reclaim(groups, need)

    def plan_direct(self, groups: "list[Cgroup]",
                    need: int) -> "list[tuple[Cgroup, int]]":
        return plan_direct_reclaim(groups, need)
