"""Burstable CPU policy: shares-only until the domain is contended.

The "CPU-Limits kill Performance" direction from PAPERS.md: hard CFS
quotas throttle a container even when the host has idle cores, so a
latency service pays tail latency for capacity nobody else wanted.
This policy removes the hard quota while a contention domain has slack
and lets quotas re-assert only under pressure:

* **Uncontended domain** (sum of burst demands ``min(|cpuset|, n)``
  fits in the domain's capacity): every group is capped only by its
  cpuset and its own runnable threads — quota-free bursting.  No
  throttle time accrues; idle capacity is genuinely free.
* **Contended domain** (burst demand exceeds capacity): contention is
  exactly the condition under which CPU PSI "some" goes positive, so
  this is the deterministic analogue of PSI-triggered throttling —
  quotas come back as *soft caps* and the allocation collapses to the
  default policy's.  Groups whose quota actually clips their demand
  are flagged ``soft_capped`` and accrue throttle time exactly as the
  default policy would, so ``cpu.stat`` reflects only pressure-induced
  throttling.

Because the contended branch reproduces the default arithmetic, a
fleet under ``burstable`` diverges from ``default`` only while slack
exists — which is precisely the claim the bundle differential
(``repro check --diff default,burstable``) holds lawful and the
``exp_policy`` experiment quantifies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernel.sched.fair import GroupAlloc, component_pressures, waterfill
from repro.policy.base import SchedPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.cgroup import Cgroup
    from repro.kernel.sched.fair import SchedParams

__all__ = ["BurstableSchedPolicy"]


class BurstableSchedPolicy(SchedPolicy):
    """No hard quota; shares + pressure-triggered soft throttling."""

    name = "burstable"
    #: Stateless: the soft-cap decision is recomputed from the same
    #: inputs every solve, so memoization is sound.
    pure = True

    def solve(self, members: "list[Cgroup]", capacity: float,
              params: "SchedParams") -> list[GroupAlloc]:
        allocs: list[GroupAlloc] = []
        burst_total = 0.0
        for cg in members:
            n = cg.n_runnable()
            mask_size = float(len(cg.effective_cpuset()))
            quota = cg.quota_cores
            burst_cap = min(mask_size, float(n))
            g = GroupAlloc(cgroup=cg, n_threads=n,
                           weight=float(cg.cpu.shares),
                           cap=burst_cap,
                           demand=min(float(n), mask_size), quota=quota)
            allocs.append(g)
            burst_total += burst_cap
        if burst_total > capacity + params.eps:
            # The domain is under pressure: quotas re-assert as soft caps
            # (and only now can throttle time accrue).
            for g in allocs:
                if g.quota < g.cap - params.eps:
                    g.soft_capped = True
                    g.cap = min(g.quota, g.cap)
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

    #: ``soft_capped`` is part of the published row, so the clip is a
    #: row function the scheduler may evaluate once per publication.
    throttle_static = True

    def throttle_accrue(self, g: GroupAlloc, dt: float) -> None:
        # Same clipping arithmetic as the default policy, but only for
        # groups whose quota was re-asserted by domain pressure: a
        # quota'd group bursting through idle capacity is *not*
        # throttled, which is the whole point of the policy.
        if g.soft_capped:
            quota = g.quota
            clipped = max(0.0, g.demand - quota)
            if clipped > 0.0 and g.rate >= quota - 1e-9:
                cg = g.cgroup
                cg.throttled_time += clipped * dt
                cg.throttled_wall += dt

    def throttle_clip(self, g: GroupAlloc) -> float:
        if g.soft_capped:
            quota = g.quota
            clipped = g.demand - quota
            if clipped > 0.0 and g.rate >= quota - 1e-9:
                return clipped
        return 0.0

    def rate_cap(self, quota_cores: float, cpuset_size: float) -> float:
        # Bursting may lawfully exceed the quota; cpuset stays binding.
        return cpuset_size
