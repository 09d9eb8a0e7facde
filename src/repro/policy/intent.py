"""Intent-hinted reclaim: containers declare what their memory is *for*.

The ParaCell direction from PAPERS.md: treating all pages as equal makes
reclaim evict a database's working set to protect another container's
disposable scratch space.  Here each cgroup may carry a declared memory
intent (``Cgroup.set_memory_intent`` / ``ContainerSpec.memory_intent``)
and reclaim victimizes cheap intents first:

========  =====================================================
intent    meaning (reclaim rank, lowest evicted first)
========  =====================================================
scratch   regenerable temporary space — evict first (rank 0)
cache     re-fetchable cached data (rank 1)
(none)    undeclared, the memcg default (rank 2)
heap      live application state — evict last (rank 3)
========  =====================================================

Plans take the same *total* bytes as the default policy (background
reclaim is still bounded by soft-limit overage, direct reclaim by
residency) so watermark recovery is unchanged; only the victim
ordering differs — greedy by ``(rank, creation seq)`` instead of
proportional spreading.  That makes a bundle differential against
``default`` interpretable: swapped-byte totals match, their placement
does not.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernel.mm.kswapd import soft_limit_victims
from repro.policy.base import ReclaimPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.cgroup import Cgroup

__all__ = ["IntentReclaimPolicy", "INTENT_RANK", "INTENTS"]

#: Reclaim priority per declared intent; lower rank = evicted first.
INTENT_RANK: dict[str | None, int] = {
    "scratch": 0, "cache": 1, None: 2, "heap": 3}

#: Valid values for ``set_memory_intent`` (plus ``None`` to clear).
INTENTS = ("scratch", "cache", "heap")


def _rank(cg: "Cgroup") -> tuple[int, int]:
    return (INTENT_RANK.get(cg.memory.intent, 2), cg.seq)


def _greedy(victims: "list[tuple[Cgroup, int]]",
            need: int) -> "list[tuple[Cgroup, int]]":
    """Take from each victim in order until ``need`` is covered."""
    plan: list[tuple[Cgroup, int]] = []
    remaining = need
    for cg, avail in victims:
        if remaining <= 0:
            break
        take = min(avail, remaining)
        if take > 0:
            plan.append((cg, take))
            remaining -= take
    return plan


class IntentReclaimPolicy(ReclaimPolicy):
    """Reclaim scratch before cache before unhinted before heap."""

    name = "intent"

    def plan_background(self, groups: "list[Cgroup]",
                        need: int) -> "list[tuple[Cgroup, int]]":
        if need <= 0:
            return []
        victims = soft_limit_victims(groups)
        victims.sort(key=lambda pair: _rank(pair[0]))
        return _greedy(victims, need)

    def plan_direct(self, groups: "list[Cgroup]",
                    need: int) -> "list[tuple[Cgroup, int]]":
        if need <= 0:
            return []
        holders = [(cg, cg.memory.resident) for cg in groups
                   if cg.memory.resident > 0]
        holders.sort(key=lambda pair: _rank(pair[0]))
        return _greedy(holders, need)
