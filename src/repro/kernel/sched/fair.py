"""Fluid model of the Linux Completely Fair Scheduler with cgroup support.

Instead of simulating per-tick context switches, the scheduler solves a
**weighted max-min (water-filling) allocation** of the host's CPU
capacity over the leaf cgroups that currently have runnable threads,
re-solving whenever the runnable set or any cpu-cgroup parameter
changes.  This is the classic fluid/GPS approximation of CFS: over any
scheduling period, CFS hands each contending group CPU time proportional
to ``cpu.shares``, capped by its quota (``cfs_quota_us/cfs_period_us``),
its cpuset size, and its own demand (one core per runnable thread).

The model keeps the two properties Algorithm 1 of the paper depends on:

* **work conservation** — capacity is never left idle while some group
  could use more (`pslack` is only positive when every group is capped);
* **share-proportional contention** — groups contending for the same
  CPUs receive time in proportion to their shares.

Oversubscribed groups (more runnable threads than allocated cores) pay a
context-switch efficiency penalty: occupancy stays at the allocation but
useful *progress* is scaled by ``1/(1 + csw_overhead*(n/alloc - 1))``.
This is what makes over-threading (15 GC threads on a 4-core share)
mechanically slower, reproducing the paper's motivation experiments.

Engine modes
------------

The scheduler runs in one of two modes that share every piece of
allocation and accrual arithmetic and therefore produce byte-identical
traces; they differ only in asymptotic cost:

* ``incremental`` (default) — cpuset-overlap *contention domains* are
  cached and only the domains touched by a dirty cgroup are re-solved;
  segment completions are discovered through a two-level completion
  index (a per-cgroup heap of work-at-completion targets feeding a
  group-level time heap) instead of scanning every runnable thread.
* ``scan`` — the brute-force reference: every invalidation triggers a
  full re-solve and completions are found by scanning all runnable
  threads.  Used by tests to prove the incremental bookkeeping exact
  and by ``bench_engine.py`` for before/after comparisons.

Per-event cost is O(busy groups) for accrual (threads resolve their
work lazily against per-group progress integrals maintained here) and
O(affected domain) for re-solves, instead of O(threads) + O(groups²).
Both per-event passes are kept lean because they run on every event:

* accrual (:meth:`FairScheduler.advance`) is one pass over the snapshot
  that collects each busy group's CPU/memory stall and hands them to
  :func:`repro.obs.pressure.advance_stalls` in one batch, which
  evaluates the three PSI window decays once per step; the snapshot
  totals it reads (allocated cores, demand, runnable threads) are summed
  once per :meth:`FairScheduler.reallocate`;
* publication (``_publish_rows``) is one pass over a solved domain's
  rows that detects an unchanged row by identity or field compares,
  derives per-thread progress and occupancy straight from the row, and
  re-indexes completions through ``_push_entry``, which reads the head
  segment and prices it without per-thread method calls.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import insort
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.kernel.cgroup import Cgroup, CgroupRoot
from repro.kernel.cpu import HostCpus
from repro.kernel.task import WORK_EPS, ThreadState
from repro.obs.pressure import advance_stalls

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.task import SimThread
    from repro.policy.base import SchedPolicy

__all__ = ["SchedParams", "GroupAlloc", "waterfill", "component_pressures",
           "FairScheduler"]

_EPS = 1e-9

#: Completion-heap entries drift from freshly-computed completion times
#: by float rounding only (~ulp scale); any entry within this window of
#: the heap head is re-evaluated exactly, so the heap orders candidates
#: while fresh arithmetic decides, keeping both modes byte-identical.
_CAND_WINDOW = 1e-9

#: A re-push is skipped when the live heap entry was computed from the
#: same (head target, progress rate) and its estimate agrees with fresh
#: arithmetic within this tolerance.  Kept a small fraction of
#: ``_CAND_WINDOW`` so a retained entry can never move a true candidate
#: out of the re-evaluation window.
_PUSH_SKIP_TOL = _CAND_WINDOW / 4.0

#: Bound on the domain-solve memo table; cleared wholesale when full
#: (a plain dict beats an LRU at these hit rates).
_SOLVE_CACHE_MAX = 8192

_INF = math.inf
_RUNNABLE = ThreadState.RUNNABLE


@dataclass(frozen=True)
class SchedParams:
    """Tunables of the fluid CFS model."""

    #: Context-switch overhead coefficient for oversubscribed groups.
    csw_overhead: float = 0.05
    #: Cross-container interference coefficient.  Groups whose cpusets
    #: overlap other busy groups lose efficiency proportionally to the
    #: oversubscription of their contention domain (cache pollution,
    #: wake-up latency).  A container with a *dedicated* cpuset is immune
    #: — which is why the paper observes that JDK 9's CPU-affinity
    #: isolation yields steadier GC times than the work-conserving
    #: adaptive approach as co-runner count grows (§5.2, Fig. 7).
    #: Independent threads tolerate interference fairly well; the GC cost
    #: model layers an extra sensitivity on top for synchronizing teams.
    interference: float = 0.05
    #: Allocation below this is treated as zero.
    eps: float = _EPS


@dataclass
class GroupAlloc:
    """One cgroup's slice of the current allocation snapshot."""

    cgroup: Cgroup
    n_threads: int
    weight: float
    cap: float          # min(quota, |cpuset|, n_threads)
    rate: float = 0.0   # cores allocated
    efficiency: float = 1.0
    demand: float = 0.0   # min(n_threads, |cpuset|), cached for accrual
    pressure: float = 0.0  # contention-domain pressure, memoized
    quota: float = float("inf")  # quota_cores, cached for accrual
    #: Policy flag: the quota re-asserted itself under domain pressure
    #: (burstable policy); throttle time accrues only while set.
    soft_capped: bool = False
    #: The field tuple last published into this (pooled) object; lets
    #: re-publication skip groups whose solve output did not change.
    _row: tuple | None = field(default=None, repr=False, compare=False)
    #: ``policy.throttle_clip`` evaluated at publication (row-static
    #: policies only): the per-second throttled_time accrual rate the
    #: mechanism applies each step without calling back into the policy.
    _clip: float = field(default=0.0, repr=False, compare=False)

    @property
    def per_thread_progress(self) -> float:
        """Useful progress rate of each thread in the group (cores)."""
        if self.n_threads == 0:
            return 0.0
        return (self.rate / self.n_threads) * self.efficiency

    @property
    def per_thread_occupancy(self) -> float:
        """CPU occupancy charged to each thread (cores)."""
        if self.n_threads == 0:
            return 0.0
        return self.rate / self.n_threads


@dataclass
class _Component:
    """A cached contention domain: a connected component of cpuset overlap.

    ``mask_count`` tracks how many members carry each distinct cpuset
    mask: a member whose mask is still held by another member can leave
    (and a member whose exact mask is already present can enter) without
    changing the component's connectivity or CPU set, so partial
    re-solves can update membership in place instead of re-running
    union-find.
    """

    members: list[Cgroup] = field(default_factory=list)  # seq-sorted
    cpus: set[int] = field(default_factory=set)
    capacity: float = 0.0
    mask_count: dict = field(default_factory=dict)


def waterfill(weights: list[float], caps: list[float], capacity: float) -> list[float]:
    """Weighted max-min allocation of ``capacity`` under per-entry caps.

    Repeatedly hands each still-active entry its weighted fair share of
    the remaining capacity; entries whose fair share meets their cap are
    frozen at the cap and removed.  Terminates in at most ``len(weights)``
    rounds.  The result is work-conserving: total allocated equals
    ``min(capacity, sum(caps))`` (up to float tolerance).
    """
    n = len(weights)
    if n != len(caps):
        raise ValueError("weights and caps must have equal length")
    alloc = [0.0] * n
    active = [i for i in range(n) if caps[i] > _EPS and weights[i] > 0.0]
    remaining = float(capacity)
    while active and remaining > _EPS:
        total_w = sum(weights[i] for i in active)
        # Entries whose weighted fair share would exceed their cap are
        # frozen at the cap; if none, the fair split is final.
        frozen = [i for i in active
                  if caps[i] <= remaining * weights[i] / total_w + _EPS]
        if not frozen:
            for i in active:
                alloc[i] = remaining * weights[i] / total_w
            return alloc
        for i in frozen:
            alloc[i] = caps[i]
            remaining -= caps[i]
        remaining = max(0.0, remaining)
        frozen_set = set(frozen)
        active = [i for i in active if i not in frozen_set]
    return alloc


def component_pressures(allocs: list[GroupAlloc]) -> list[float]:
    """Runnable-thread pressure of each group's contention domain.

    The contention domain of group *i* is the union of the cpusets of
    all groups whose cpusets intersect its own; pressure is the
    runnable threads in the domain divided by the domain's CPU count.
    *Other* groups contribute all their runnable threads (their
    time-slicing pollutes caches and preempts this group's lock
    holders); the group's *own* threads count only up to its own
    allocation — time-slicing among your own threads is the
    ``csw_overhead`` term, not cross-container interference.  A group
    with a dedicated cpuset therefore never pays interference,
    however many threads it runs (JDK 9's isolation in Fig. 7).

    Batched by distinct mask: fleets share a handful of cpuset masks,
    so the pairwise work is O(distinct masks²), not O(groups²).

    Module-level (not scheduler state) so sched policies can share it.
    """
    distinct: dict[tuple[int, ...], list] = {}  # key -> [cpu set, n total]
    keys: list[tuple[int, ...]] = []
    for g in allocs:
        key = g.cgroup.effective_cpuset().as_tuple()
        keys.append(key)
        info = distinct.get(key)
        if info is None:
            distinct[key] = [set(key), g.n_threads]
        else:
            info[1] += g.n_threads
    if len(distinct) == 1:
        # One shared mask (the common fleet shape): the domain is that
        # mask and every group contends with the whole pool.
        (key, (cpus, total)), = distinct.items()
        domain_size = len(cpus)
        pressures = []
        for g in allocs:
            threads = (min(float(g.n_threads), g.rate)
                       + float(total - g.n_threads))
            pressures.append(threads / domain_size if domain_size else 0.0)
        return pressures
    stats: dict[tuple[int, ...], tuple[int, int]] = {}
    items = list(distinct.items())
    for key, (cpus, _n) in items:
        total = 0                   # exact: integer thread counts
        domain: set[int] = set(cpus)
        for key2, (cpus2, n2) in items:
            if cpus & cpus2:
                total += n2
                domain |= cpus2
        stats[key] = (total, len(domain))
    pressures: list[float] = []
    for g, key in zip(allocs, keys):
        total, domain_size = stats[key]
        threads = (min(float(g.n_threads), g.rate)
                   + float(total - g.n_threads))
        pressures.append(threads / domain_size if domain_size else 0.0)
    return pressures


class FairScheduler:
    """Scheduler mechanism: snapshots, accrual, and slack accounting.

    Allocation *decisions* are delegated to a pluggable
    :class:`~repro.policy.base.SchedPolicy` (see :mod:`repro.policy`);
    this class keeps the policy-agnostic machinery — dirty sets, cached
    contention domains, the completion index, and every conservation
    ledger — so policies can be hot-swapped mid-run without touching
    audited state.
    """

    def __init__(self, host: HostCpus, cgroups: CgroupRoot,
                 params: SchedParams | None = None, *,
                 incremental: bool = True,
                 policy: "SchedPolicy | str | None" = None):
        self.host = host
        self.cgroups = cgroups
        self.params = params or SchedParams()
        from repro.policy import make_sched_policy
        self.policy = make_sched_policy(
            "default" if policy is None else policy)
        self._incremental = incremental
        self._snapshot: list[GroupAlloc] = []
        self._galloc: dict[Cgroup, GroupAlloc] = {}
        #: Pooled per-cgroup GroupAlloc objects: publication writes the
        #: solved fields into a stable object per group instead of
        #: allocating fresh ones, so the seq-sorted snapshot only needs
        #: rebuilding when the busy *membership* changes.
        self._gpool: dict[Cgroup, GroupAlloc] = {}
        self._members_changed = True
        #: Snapshot totals, summed in reallocate's pass over the snapshot
        #: (rows change only during publication).  ``_allocated`` starts
        #: as the int 0 that ``sum`` gives an empty snapshot.
        self._n_run_total = 0
        self._allocated = 0
        self._total_demand = 0.0
        #: While a partial re-solve publishes: the dirty set it was
        #: triggered by (None means treat every group as dirty).
        self._publish_dirty: set[Cgroup] | None = None
        #: Domain-solve memo: enabled only for pure (stateless) policies
        #: in incremental mode; scan stays the uncached reference.
        self._solve_cache: dict | None = None
        self._refresh_solve_cache()
        self._dirty_all = True
        self._dirty_groups: set[Cgroup] = set()
        # Cached contention domains (incremental mode).
        self._comps: dict[int, _Component] = {}
        self._comp_of: dict[Cgroup, int] = {}
        self._cpu_comp: dict[int, int] = {}
        self._comp_ids = itertools.count()
        # Group-level completion heap: (est. completion time, push id,
        # cgroup).  An entry is current iff its push id matches the
        # cgroup's ``_sched_entry_seq``; stale entries drop lazily.
        self._cheap: list[tuple[float, int, Cgroup]] = []
        self._push_ids = itertools.count()
        #: Groups whose head segment is due but progressing at zero rate
        #: (a zero-work segment in an unallocated group): they have no
        #: finite completion time yet must still fire.
        self._due_zero: set[Cgroup] = set()
        self._time = 0.0               # internal timebase (sum of advances)
        self._offline_pressure: dict[Cgroup, float] = {}
        self.total_idle_time = 0.0      # integral of unallocated capacity
        self.window_idle = 0.0          # idle capacity since last sys_ns window reset
        cgroups.set_dirty_hook(self.mark_dirty)
        cgroups.set_completion_hook(self.note_completion_change)

    @property
    def incremental(self) -> bool:
        return self._incremental

    # -- invalidation ----------------------------------------------------------

    def mark_dirty(self, cgroup: Cgroup | None = None,
                   topology: bool = False) -> None:
        """Invalidate the allocation.

        ``cgroup`` scopes the invalidation to that group's contention
        domain; ``None`` or ``topology=True`` (a cpuset edit changed the
        domain structure itself) invalidates globally.
        """
        if cgroup is None or topology or not self._incremental:
            self._dirty_all = True
        else:
            self._dirty_groups.add(cgroup)

    @property
    def dirty(self) -> bool:
        return self._dirty_all or bool(self._dirty_groups)

    # -- solving ---------------------------------------------------------------

    def reallocate(self) -> list[GroupAlloc]:
        """Re-solve the allocation for the current runnable set.

        Incremental mode re-solves only the contention domains reachable
        from dirty cgroups; scan mode (and topology/global invalidation)
        rebuilds everything.  Both paths share :meth:`_solve_component`,
        so partial re-solves are bit-identical to full ones.
        """
        if self._incremental and not self._dirty_all:
            # Publication may skip heap re-pushes for groups outside this
            # set whose solve output is unchanged (their live entries are
            # still exact; head changes notify separately).
            self._publish_dirty = self._dirty_groups
            self._solve_partial(self._dirty_groups)
            self._publish_dirty = None
        else:
            self._solve_full()
        self._dirty_groups.clear()
        self._dirty_all = False
        if self._members_changed:
            # Publication pools GroupAlloc objects per cgroup, so the
            # seq-sorted snapshot stays valid while the busy membership
            # is unchanged; only rate/efficiency fields were rewritten.
            self._snapshot = sorted(self._galloc.values(),
                                    key=lambda g: g.cgroup.seq)
            self._members_changed = False
        # One pass for the snapshot totals, in snapshot order (the same
        # summation order as ``sum`` over the snapshot).
        n_run = 0
        allocated = 0
        total_demand = 0.0
        for g in self._snapshot:
            n_run += g.n_threads
            allocated += g.rate
            total_demand += g.demand
        self._n_run_total = n_run
        self._allocated = allocated
        self._total_demand = total_demand
        self._offline_pressure.clear()
        return self._snapshot

    def _solve_full(self) -> None:
        for cg in list(self._galloc):
            if cg.destroyed:
                self._retire(cg)
        busy: list[Cgroup] = []
        for cg in self.cgroups.walk():
            if cg.n_runnable() == 0:
                if cg in self._galloc:
                    self._retire(cg)
                else:
                    cg.cpu_rate = 0.0
                continue
            busy.append(cg)
        self._comps.clear()
        self._comp_of.clear()
        self._cpu_comp.clear()
        self._register_components(busy)

    def _solve_partial(self, dirty: set[Cgroup]) -> None:
        # Fast path: every dirty group either stays put, leaves a
        # component in which another member holds the identical cpuset
        # mask, or enters a component that already contains its exact
        # mask.  None of those can change domain connectivity or any
        # component's CPU set (cpuset *edits* invalidate globally via
        # ``topology=True``), so membership is updated in place and the
        # affected components re-solved — re-running union-find would
        # reproduce them exactly.
        resolve: set[int] = set()
        leavers: list[tuple[Cgroup, _Component, tuple]] = []
        enterers: list[tuple[Cgroup, int, tuple]] = []
        # Mask counts as they would stand after the pending fast ops:
        # two leavers sharing a mask held twice must not both pass.
        delta: dict[tuple[int, tuple], int] = {}
        fast = True
        for cg in dirty:
            gone = cg.destroyed or cg.n_runnable() == 0
            galloc_entry = cg in self._galloc
            if galloc_entry:
                comp_id = self._comp_of[cg]
                if not gone:
                    resolve.add(comp_id)
                    continue
                comp = self._comps[comp_id]
                mask = cg.effective_cpuset().as_tuple()
                key = (comp_id, mask)
                if comp.mask_count.get(mask, 0) + delta.get(key, 0) >= 2:
                    delta[key] = delta.get(key, 0) - 1
                    leavers.append((cg, comp, mask))
                    resolve.add(comp_id)
                else:
                    fast = False
                    break
            elif gone:
                cg.cpu_rate = 0.0
            else:
                mask = cg.effective_cpuset().as_tuple()
                comp_id = self._cpu_comp.get(mask[0]) if mask else None
                if comp_id is not None:
                    key = (comp_id, mask)
                    comp = self._comps[comp_id]
                    if comp.mask_count.get(mask, 0) + delta.get(key, 0) >= 1:
                        delta[key] = delta.get(key, 0) + 1
                        enterers.append((cg, comp_id, mask))
                        resolve.add(comp_id)
                        continue
                fast = False
                break
        if fast:
            for cg, comp, mask in leavers:
                comp.mask_count[mask] -= 1
                comp.members.remove(cg)
                self._retire(cg)
            for cg, comp_id, mask in enterers:
                comp = self._comps[comp_id]
                comp.mask_count[mask] = comp.mask_count.get(mask, 0) + 1
                insort(comp.members, cg, key=lambda c: c.seq)
                self._comp_of[cg] = comp_id
            for comp_id in sorted(resolve):
                comp = self._comps[comp_id]
                self._solve_component(comp.members, comp.capacity)
            return
        affected: set[int] = set()
        entering: list[Cgroup] = []
        for cg in dirty:
            if cg.destroyed or cg.n_runnable() == 0:
                if cg in self._galloc:
                    affected.add(self._comp_of[cg])
                    self._retire(cg)
                else:
                    cg.cpu_rate = 0.0
                continue
            if cg in self._galloc:
                affected.add(self._comp_of[cg])
            else:
                entering.append(cg)
        # A group entering the busy set merges every existing domain its
        # cpuset touches (found through the cpu -> domain map).
        for cg in entering:
            for cpu in cg.effective_cpuset():
                comp_id = self._cpu_comp.get(cpu)
                if comp_id is not None:
                    affected.add(comp_id)
        if not affected and not entering:
            return
        pool: list[Cgroup] = list(entering)
        for comp_id in affected:
            comp = self._comps.pop(comp_id)
            for cpu in comp.cpus:
                if self._cpu_comp.get(cpu) == comp_id:
                    del self._cpu_comp[cpu]
            for cg in comp.members:
                if self._comp_of.get(cg) == comp_id:
                    del self._comp_of[cg]
                    pool.append(cg)
        self._register_components(pool)

    def _retire(self, cg: Cgroup) -> None:
        """Drop a no-longer-busy group from all engine indexes."""
        if self._galloc.pop(cg, None) is not None:
            self._members_changed = True
        self._gpool.pop(cg, None)
        self._comp_of.pop(cg, None)
        self._due_zero.discard(cg)
        cg.cpu_rate = 0.0
        cg._thread_rate = 0.0
        cg._occ_rate = 0.0
        cg._sched_entry_seq = -1

    def _register_components(self, pool: list[Cgroup]) -> None:
        """Partition ``pool`` into cpuset-overlap components and solve each.

        Union-find over CPU ids: O(groups + cpus) instead of the pairwise
        O(groups²) mask comparison.
        """
        if not pool:
            return
        pool = sorted(pool, key=lambda c: c.seq)
        masks = [cg.effective_cpuset().as_tuple() for cg in pool]
        # Fleets share a handful of masks (usually just the full host
        # set), so union the *distinct* masks, not one per group.
        by_mask: dict[tuple[int, ...], list[int]] = {}
        for i, mask in enumerate(masks):
            by_mask.setdefault(mask, []).append(i)
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for mask in by_mask:
            first = mask[0]
            if first not in parent:
                parent[first] = first
            r = find(first)
            for cpu in mask[1:]:
                if cpu not in parent:
                    parent[cpu] = r
                else:
                    rc = find(cpu)
                    if rc != r:
                        parent[rc] = r
        grouped: dict[int, list[tuple[int, ...]]] = {}
        for mask in by_mask:
            grouped.setdefault(find(mask[0]), []).append(mask)
        for mask_list in grouped.values():
            idxs = sorted(i for mask in mask_list for i in by_mask[mask])
            members = [pool[i] for i in idxs]     # seq-sorted: pool is
            cpus: set[int] = set()
            for mask in mask_list:
                cpus.update(mask)
            comp_id = next(self._comp_ids)
            capacity = float(len(cpus))
            mask_count = {mask: len(by_mask[mask]) for mask in mask_list}
            self._comps[comp_id] = _Component(members, cpus, capacity,
                                              mask_count)
            for cg in members:
                self._comp_of[cg] = comp_id
            for cpu in cpus:
                self._cpu_comp[cpu] = comp_id
            self._solve_component(members, capacity)

    def _solve_component(self, members: list[Cgroup], capacity: float) -> None:
        """Solve one contention domain and publish rates to its groups.

        The arithmetic lives in the policy (:meth:`_policy_solve`);
        publication — caching the GroupAlloc, pushing rates to the
        cgroups, refreshing the completion index — is mechanism and is
        identical under every policy.  Shared verbatim by full and
        partial re-solves, so identical (seq-ordered) inputs yield
        bit-identical rates regardless of what else was re-solved.
        """
        cache = self._solve_cache
        key = self._solve_key(members, capacity) if cache is not None else None
        rows = cache.get(key) if key is not None else None
        if rows is None:
            allocs = self._policy_solve(members, capacity)
            by_cg = {g.cgroup: g for g in allocs}
            if len(by_cg) != len(members) or any(cg not in by_cg
                                                 for cg in members):
                # Policy returned something other than one alloc per
                # member: publish directly, bypass pooling and memo.
                self._members_changed = True
                policy = self.policy
                clip_fn = (policy.throttle_clip
                           if policy.throttle_static else None)
                for g in allocs:
                    cg = g.cgroup
                    self._galloc[cg] = g
                    self._gpool[cg] = g
                    if clip_fn is not None:
                        g._clip = clip_fn(g)
                    cg.cpu_rate = g.rate
                    cg._thread_rate = (g.per_thread_progress
                                       * cg.progress_multiplier)
                    cg._occ_rate = g.per_thread_occupancy
                    if self._incremental:
                        self._push_entry(cg)
                return
            rows = tuple(
                (g.n_threads, g.weight, g.cap, g.rate, g.efficiency,
                 g.demand, g.pressure, g.quota, g.soft_capped)
                for g in (by_cg[cg] for cg in members))
            if key is not None:
                if len(cache) >= _SOLVE_CACHE_MAX:
                    cache.clear()
                cache[key] = rows
        self._publish_rows(members, rows)

    def _solve_key(self, members: list[Cgroup], capacity: float):
        """Hashable domain-solve inputs, for the pure-policy memo table.

        A pure policy's solve is a function of exactly these values (plus
        ``self.params``, immutable for the scheduler's lifetime): the
        seq-ordered members' shares, quota, mask, and runnable count, and
        the domain capacity.  ``progress_multiplier`` is deliberately
        absent — it scales published rates, not the solve.
        """
        return (capacity, tuple(
            (cg.cpu.shares, cg.cpu.cfs_quota_us, cg.cpu.cfs_period_us,
             cg.n_runnable(),
             None if cg.cpuset.cpus is None else cg.cpuset.cpus.as_tuple())
            for cg in members))

    def _publish_rows(self, members: list[Cgroup], rows: tuple) -> None:
        """Publish solved per-group fields through the GroupAlloc pool.

        Row layout: ``(n_threads, weight, cap, rate, efficiency, demand,
        pressure, quota, soft_capped)``.  The per-thread rates pushed to
        the cgroup are the :class:`GroupAlloc` property expressions,
        evaluated from the row.
        """
        galloc = self._galloc
        pool = self._gpool
        incremental = self._incremental
        push_entry = self._push_entry
        dirty = self._publish_dirty
        policy = self.policy
        clip_fn = policy.throttle_clip if policy.throttle_static else None
        for cg, row in zip(members, rows):
            n = row[0]
            rate = row[3]
            # GroupAlloc.per_thread_progress * multiplier, from the row.
            tr = (rate / n) * row[4] * cg.progress_multiplier if n else 0.0
            g = pool.get(cg)
            old = None if g is None else g._row
            if g is None:
                g = GroupAlloc(cg, 0, 0.0, 0.0)
                pool[cg] = g
            elif old is not None and cg in galloc and (old is row or (
                    old[4] == row[4] and old[3] == rate and old[0] == n
                    and old[5] == row[5] and old[8] == row[8]
                    and old[7] == row[7] and old[2] == row[2]
                    and old[1] == row[1])):
                # Everything published from this group's slice of the
                # solve is unchanged (memo hits hand back the very same
                # row; otherwise the fields are compared, the likeliest
                # to move first); at most the memoized domain pressure
                # moved (the common uncontended-fleet case, where another
                # group's thread count shifts the shared pressure but
                # nobody's rates).  Publication can then be skipped —
                # unless the memory slowdown moved the progress
                # multiplier underneath the row.
                g.pressure = row[6]
                g._row = row
                if tr == cg._thread_rate:
                    # A clean group with a live heap entry keeps it: the
                    # entry was computed from these same rates, and
                    # completion-head changes re-push through
                    # ``note_completion_change`` regardless.
                    if incremental and (dirty is None or cg in dirty
                                        or cg._sched_entry_seq == -1):
                        push_entry(cg)
                    continue
            g._row = row
            (g.n_threads, g.weight, g.cap, g.rate, g.efficiency,
             g.demand, g.pressure, g.quota, g.soft_capped) = row
            if clip_fn is not None:
                g._clip = clip_fn(g)
            if cg not in galloc:
                self._members_changed = True
                galloc[cg] = g
            cg.cpu_rate = rate
            cg._thread_rate = tr
            cg._occ_rate = rate / n if n else 0.0   # per_thread_occupancy
            if incremental:
                push_entry(cg)

    def _policy_solve(self, members: list[Cgroup],
                      capacity: float) -> list[GroupAlloc]:
        """Policy indirection for one domain solve.

        A separate method (rather than calling ``self.policy.solve``
        inline) so the profiler can wrap it: the wrap survives
        :meth:`set_policy` because the indirection, not the policy
        instance, carries the instrumentation.
        """
        return self.policy.solve(members, capacity, self.params)

    def set_policy(self, policy: "SchedPolicy | str") -> dict:
        """Hot-swap the scheduling policy (plugsched-style).

        The outgoing policy exports its internal state, the incoming one
        imports it (ignoring keys it does not understand), and every
        domain is marked dirty so the next :meth:`reallocate` re-solves
        the whole host under the new policy.  Mechanism ledgers are not
        touched — :meth:`repro.world.World.swap_policy` asserts that.

        Returns the handoff record ``{"from", "to", "state"}``.
        """
        from repro.policy import make_sched_policy
        new = make_sched_policy(policy)
        old = self.policy
        state = old.export_state()
        new.import_state(state)
        self.policy = new
        self._refresh_solve_cache()
        # Drop cached publication rows: an identical row under the new
        # policy can still mean a different throttle clip, so every
        # group must take the full publish path once.
        for g in self._gpool.values():
            g._row = None
        self.mark_dirty()
        return {"from": old.name, "to": new.name, "state": state}

    def _refresh_solve_cache(self) -> None:
        """(Re)arm the domain-solve memo for the current policy.

        Only pure policies (solve a function of the key built by
        :meth:`_solve_key`) may be memoized, and only in incremental
        mode — scan stays the uncached brute-force reference.
        """
        if self._incremental and getattr(self.policy, "pure", False):
            self._solve_cache = {}
        else:
            self._solve_cache = None

    # -- completion index ------------------------------------------------------

    def note_completion_change(self, cg: Cgroup) -> None:
        """A thread (re)anchored a segment: refresh the group's heap entry.

        Catches completion-head changes that do not dirty the allocation
        (assigning work to an already-runnable thread).
        """
        if self._incremental and cg in self._galloc:
            self._push_entry(cg)

    def _push_entry(self, cg: Cgroup) -> None:
        """(Re)index a group's earliest completion in the group-level heap.

        Reads the head off the group's work heap (falling back to
        ``Cgroup._completion_head`` to drop stale entries) and prices it
        with the arithmetic of ``SimThread.time_to_completion``.
        """
        heap = cg._work_heap
        if heap:
            target, _tid, head = heap[0]
            if head.state is not _RUNNABLE or head._target != target:
                head = cg._completion_head()
        else:
            head = None
        if head is None:
            self._due_zero.discard(cg)
            cg._sched_entry_seq = -1
            return
        target = head._target
        rate = cg._thread_rate
        remaining = target - cg.progress_acc
        due = remaining <= WORK_EPS + 1e-15 * target
        if rate <= 0.0:
            ttc = _INF
        elif due:
            ttc = 0.0
        else:
            ttc = remaining / rate
        if ttc == _INF:
            self._due_zero.discard(cg)
            cg._sched_entry_seq = -1
            if due:
                self._due_zero.add(cg)
            return
        est = self._time + ttc
        if (cg._sched_entry_seq != -1
                and cg._sched_entry_rate == rate
                and cg._sched_entry_target == target
                and abs(est - cg._sched_entry_est) <= _PUSH_SKIP_TOL):
            # The live heap entry was computed from the same inputs and
            # fresh arithmetic agrees within a fraction of the candidate
            # window: re-pushing would only duplicate it.  (A group with
            # a live entry is never in ``_due_zero``.)
            return
        self._due_zero.discard(cg)
        push_id = next(self._push_ids)
        cg._sched_entry_seq = push_id
        cg._sched_entry_target = target
        cg._sched_entry_rate = rate
        cg._sched_entry_est = est
        heap = self._cheap
        heapq.heappush(heap, (est, push_id, cg))
        # Compact once superseded entries dominate the heap.
        if len(heap) > 64 and len(heap) > 4 * len(self._galloc):
            live = [e for e in heap if e[1] == e[2]._sched_entry_seq]
            heapq.heapify(live)
            self._cheap = live

    def next_completion(self) -> float:
        """Seconds until the earliest runnable segment completes (inf if none)."""
        if not self._incremental:
            best = float("inf")
            for g in self._snapshot:
                for t in g.cgroup.runnable_threads:
                    ttc = t.time_to_completion()
                    if ttc < best:
                        best = ttc
            return best
        if self.dirty:
            self.reallocate()
        heap = self._cheap
        while heap and heap[0][1] != heap[0][2]._sched_entry_seq:
            heapq.heappop(heap)
        if not heap:
            return float("inf")
        # Single-candidate fast path: the second-smallest estimate in a
        # binary heap is one of the root's two children, so if both lie
        # beyond the re-evaluation window only the head is a candidate
        # and fresh arithmetic decides alone (exactly what the general
        # loop would compute, minus the pop/re-push churn).
        n = len(heap)
        limit0 = heap[0][0] + _CAND_WINDOW
        if ((n < 2 or heap[1][0] > limit0)
                and (n < 3 or heap[2][0] > limit0)):
            head = heap[0][2]._completion_head()
            return (head.time_to_completion() if head is not None
                    else float("inf"))
        popped: list[tuple[float, int, Cgroup]] = []
        best = float("inf")
        limit: float | None = None
        while heap:
            t_est, push_id, cg = heap[0]
            if push_id != cg._sched_entry_seq:
                heapq.heappop(heap)
                continue
            if limit is not None and t_est > limit:
                break
            heapq.heappop(heap)
            popped.append((t_est, push_id, cg))
            if limit is None:
                limit = t_est + _CAND_WINDOW
            head = cg._completion_head()
            if head is not None:
                ttc = head.time_to_completion()
                if ttc < best:
                    best = ttc
        for entry in popped:
            heapq.heappush(heap, entry)
        return best

    def pop_finished(self) -> "list[SimThread]":
        """Pop every thread whose current segment is due, in canonical order.

        Canonical order — groups by creation ``seq``, threads by tid —
        is identical across engine modes, so completion callbacks fire
        in the same order and traces stay byte-identical.
        """
        if not self._incremental:
            finished: list[SimThread] = []
            for g in self._snapshot:
                cg = g.cgroup
                due = [t for t in cg.runnable_threads if t.segment_finished]
                if due:
                    due.sort(key=lambda t: t.tid)
                    finished.extend(due)
                    cg._pop_due()       # keep the (unused) index trimmed
            return finished
        if self.dirty:
            self.reallocate()
        heap = self._cheap
        limit = self._time + _CAND_WINDOW
        while heap and heap[0][1] != heap[0][2]._sched_entry_seq:
            heapq.heappop(heap)
        if not self._due_zero and (not heap or heap[0][0] > limit):
            return []
        candidates: set[Cgroup] = set()
        while heap:
            t_est, push_id, cg = heap[0]
            if push_id != cg._sched_entry_seq:
                heapq.heappop(heap)
                continue
            if t_est > limit:
                break
            heapq.heappop(heap)
            # The entry is gone from the heap for good: mark it invalid
            # so the re-push below cannot be skipped as redundant.
            cg._sched_entry_seq = -1
            candidates.add(cg)
        if self._due_zero:
            candidates.update(self._due_zero)
        finished = []
        for cg in sorted(candidates, key=lambda c: c.seq):
            finished.extend(cg._pop_due())
            self._push_entry(cg)
        return finished

    # -- queries ---------------------------------------------------------------

    @property
    def snapshot(self) -> list[GroupAlloc]:
        return self._snapshot

    @property
    def elapsed(self) -> float:
        """Total simulated seconds accrued through :meth:`advance`."""
        return self._time

    def conservation_error(self) -> float:
        """Host CPU-time conservation residual, in core-seconds.

        Every accrued interval splits the host's capacity exactly between
        allocated group time and idle time, so over any run::

            sum(total_cpu_time) + retired_cpu_time + total_idle_time
                == capacity * elapsed

        up to float accumulation.  The invariant checker asserts the
        residual stays within tolerance; nonzero drift means an accrual
        path skipped a group (or double-charged one).
        """
        used = sum(cg.total_cpu_time for cg in self.cgroups.walk())
        used += self.cgroups.retired_cpu_time
        return (used + self.total_idle_time
                - self.host.capacity * self._time)

    def total_allocated(self) -> float:
        # Summed at reallocate time, like ``n_runnable_total``.
        return self._allocated

    def idle_capacity(self) -> float:
        """Instantaneous unallocated host capacity in cores."""
        return max(0.0, self.host.capacity - self._allocated)

    def n_runnable_total(self) -> int:
        # Maintained at reallocate time: n_threads fields only change
        # during publication, so the cached sum equals a fresh sum over
        # the snapshot at every point in between.
        return self._n_run_total

    # -- accrual (called by the world between events) -----------------------------

    def advance(self, dt: float) -> None:
        """Accrue ``dt`` seconds of CPU usage at the current snapshot.

        O(busy groups): per-group progress/occupancy integrals advance
        here; threads resolve their own accounting against them lazily.
        The step's PSI stalls are collected in this one pass and accrued
        in one :func:`~repro.obs.pressure.advance_stalls` batch (one set
        of window decays per step).  Idle groups' PSI averages decay
        lazily on read (the accumulators are clock-bound), so no
        hierarchy walk happens per event.
        """
        if dt <= 0.0:
            return
        self._time += dt
        allocated = self._allocated
        idle = max(0.0, self.host.capacity - allocated)
        self.total_idle_time += idle * dt
        self.window_idle += idle * dt
        eps = self.params.eps
        mem_some = 0.0
        mem_full = 1.0 if self._snapshot else 0.0
        stalls: list = []
        add_stall = stalls.append
        policy = self.policy
        throttle_static = policy.throttle_static
        throttle_accrue = policy.throttle_accrue
        for g in self._snapshot:
            cg = g.cgroup
            rate = g.rate
            used = rate * dt
            cg.total_cpu_time += used
            cg.window_usage += used
            # Throttle accounting is a policy decision (the default
            # policy clips demand at the quota; burstable only accrues
            # while a soft cap is asserted).  Row-static policies have
            # the clip precomputed at publication; others are consulted
            # per step.
            if throttle_static:
                clip = g._clip
                if clip > 0.0:
                    cg.throttled_time += clip * dt
                    cg.throttled_wall += dt
            else:
                throttle_accrue(g, dt)
            cg.progress_acc += cg._thread_rate * dt
            cg.occupancy_acc += cg._occ_rate * dt
            # CPU some: unmet share of runnable demand; full: runnable but
            # making no progress.  Memory stall is the swap/reclaim
            # slowdown, which hits every thread uniformly (some == full).
            mem_frac = 1.0 - cg.progress_multiplier
            if mem_frac < 0.0:
                mem_frac = 0.0
            if mem_frac > mem_some:
                mem_some = mem_frac
            if mem_frac < mem_full:
                mem_full = mem_frac
            if cg.parent is not None:
                demand = g.demand
                unmet = demand - rate
                some = unmet / demand if unmet > 0.0 and demand > 0 else 0.0
                full = 1.0 if (g.n_threads > 0 and rate <= eps) else 0.0
                pressure = cg.pressure
                add_stall((pressure.cpu, some, full))
                # Memory stall is rare: skip building entries the batch
                # would skip anyway (zero stall on a clock-bound one).
                pmem = pressure.memory
                if mem_frac != 0.0 or pmem._clock is None:
                    add_stall((pmem, mem_frac, mem_frac))
        # The root cgroup carries host-wide pressure, mirroring how
        # /proc/pressure reads the root group in Linux.
        total_demand = self._total_demand
        some = (max(0.0, total_demand - allocated) / total_demand
                if total_demand > 0 else 0.0)
        full = 1.0 if (total_demand > 0 and allocated <= eps) else 0.0
        root = self.cgroups.root.pressure
        add_stall((root.cpu, some, full))
        add_stall((root.memory, mem_some, mem_full))
        advance_stalls(stalls, dt)

    def contention_pressure(self, cgroup: Cgroup) -> float:
        """The current contention-domain pressure around ``cgroup``.

        Used by runtimes whose synchronizing phases (stop-the-world GC)
        are more interference-sensitive than independent threads.
        Memoized per snapshot: busy groups read the value computed at
        solve time; offline groups (e.g. mutators parked at a safepoint)
        are computed once per snapshot and cached until the next
        reallocation.
        """
        if self.dirty:
            self.reallocate()
        g = self._galloc.get(cgroup)
        if g is not None:
            return g.pressure
        cached = self._offline_pressure.get(cgroup)
        if cached is not None:
            return cached
        # Not runnable right now: measure the pressure its threads would
        # face on its cpuset.
        mask = set(cgroup.effective_cpuset())
        domain = set(mask)
        threads = 0.0
        for g in self._snapshot:
            other = set(g.cgroup.effective_cpuset())
            if mask & other:
                domain |= other
                threads += g.n_threads
        value = threads / len(domain) if domain else 0.0
        self._offline_pressure[cgroup] = value
        return value

    def fair_share_estimate(self, cgroup: Cgroup) -> float:
        """Steady-state cores this cgroup can count on while contended.

        ``min(quota, |cpuset|, weight share of the host)`` over the groups
        that currently have runnable threads.  Used by runtimes to reason
        about oversubscription independent of instantaneous blocking.
        """
        if self.dirty:
            self.reallocate()
        active_weight = sum(g.weight for g in self._snapshot
                            if g.cgroup is not cgroup)
        w = float(cgroup.cpu.shares)
        share = self.host.capacity * w / (active_weight + w)
        return max(1e-9, min(cgroup.quota_cores,
                             float(len(cgroup.effective_cpuset())), share))

    # -- sys_namespace window helpers ----------------------------------------------

    def reset_window(self, cgroup: Cgroup) -> float:
        """Return and clear a cgroup's CPU usage for the closing window."""
        used = cgroup.window_usage
        cgroup.window_usage = 0.0
        return used

    def take_window_idle(self) -> float:
        """Return and clear the host idle-capacity integral for the window."""
        idle = self.window_idle
        self.window_idle = 0.0
        return idle
