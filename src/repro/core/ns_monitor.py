"""``ns_monitor`` — the system-wide watcher of cgroup configuration.

§3.2: "Ns_monitor is implemented as a system-wide kernel thread.  We
modify the source code of cgroups to invoke ns_monitor if a
sys_namespace exists for a control group and there is a change to the
cgroups settings."

The monitor keeps the registry of live ``sys_namespace``s and, on every
cgroup event, refreshes the static pieces of the resource views:

* a quota, period or cpuset edit refreshes the edited namespace's CPU
  bounds only: nobody else's inputs changed;
* container creation/termination or a ``cpu.shares`` edit moves
  ``sum(w_j)``, which enters every namespace's share term
  ``ceil(w_i / sum(w_j) * |P|)``.  The monitor re-bounds only the
  namespaces whose term can move (see :meth:`NsMonitor._rebound`);
* a memory-limit edit refreshes that namespace's soft/hard limits.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.core.effective_cpu import share_cpus
from repro.core.sys_namespace import SysNamespace
from repro.kernel.cgroup import Cgroup, CgroupEvent, CgroupEventKind, CgroupRoot

__all__ = ["NsMonitor"]

#: ``(cpu.shares, cgroup.seq, namespace)``: the shares counted in
#: ``total_shares`` for one registered namespace.
_Entry = tuple[int, int, SysNamespace]


class NsMonitor:
    """Registry of sys_namespaces plus the cgroup-event subscriber."""

    def __init__(self, cgroups: CgroupRoot):
        self.cgroups = cgroups
        self._by_cgroup: dict[str, _Entry] = {}
        #: The same entries sorted by ``(shares, seq)``.
        self._order: list[_Entry] = []
        #: ``sum(w_j)`` over every registered namespace.
        self.total_shares = 0
        self.events_seen = 0
        cgroups.subscribe(self._on_cgroup_event)

    # -- registry ----------------------------------------------------------

    def register(self, sys_ns: SysNamespace) -> None:
        """Add a new container's namespace and rebalance the bounds it moves."""
        path = sys_ns.cgroup.path
        old_total = self.total_shares
        previous = self._by_cgroup.get(path)
        if previous is not None:
            self._unlink(previous)
        self._by_cgroup[path] = self._link(sys_ns)
        sys_ns.refresh_memory_limits()
        sys_ns.initialize_cpu(self.total_shares)
        self._rebound(old_total)

    def unregister(self, sys_ns: SysNamespace) -> None:
        """Remove a terminated container's namespace and rebalance."""
        self._drop(sys_ns.cgroup.path)

    def lookup(self, cgroup: Cgroup) -> SysNamespace | None:
        entry = self._by_cgroup.get(cgroup.path)
        return None if entry is None else entry[2]

    @property
    def namespaces(self) -> list[SysNamespace]:
        return [ns for _, _, ns in self._by_cgroup.values()]

    def _link(self, ns: SysNamespace) -> _Entry:
        entry = (ns.cgroup.cpu.shares, ns.cgroup.seq, ns)
        self._order.insert(bisect_left(self._order, entry[:2]), entry)
        self.total_shares += entry[0]
        return entry

    def _unlink(self, entry: _Entry) -> None:
        del self._order[bisect_left(self._order, entry[:2])]
        self.total_shares -= entry[0]

    def _drop(self, path: str) -> SysNamespace | None:
        entry = self._by_cgroup.pop(path, None)
        if entry is None:
            return None
        old_total = self.total_shares
        self._unlink(entry)
        self._rebound(old_total)
        return entry[2]

    def _rebound(self, old_total: int) -> None:
        """Re-bound every namespace whose share term can differ between
        ``old_total`` and ``total_shares``.

        The walk runs down the shares order and stops at the first
        namespace whose term is 1 at ``min(old_total, total_shares)``.
        :func:`share_cpus` is non-decreasing in ``w`` and non-increasing
        in the total, so every namespace below has term 1 at both
        totals: its bounds are unchanged and, because ``e_cpu`` already
        lies within them, so is its clamped ``e_cpu``.
        """
        total = self.total_shares
        low = min(old_total, total)
        ncpus = self.cgroups.host.ncpus
        for shares, _, ns in reversed(self._order):
            if share_cpus(shares, low, ncpus) == 1:
                break
            ns.refresh_cpu_bounds(total)

    # -- cgroup-event handling -----------------------------------------------

    def _on_cgroup_event(self, event: CgroupEvent) -> None:
        self.events_seen += 1
        if event.kind is CgroupEventKind.CPU_CHANGED:
            path = event.cgroup.path
            entry = self._by_cgroup.get(path)
            if entry is None:
                return
            ns = entry[2]
            if entry[0] == event.cgroup.cpu.shares:
                # Quota/period/cpuset edit: only this namespace's inputs
                # changed.
                ns.refresh_cpu_bounds(self.total_shares)
                return
            old_total = self.total_shares
            self._unlink(entry)
            self._by_cgroup[path] = self._link(ns)
            ns.refresh_cpu_bounds(self.total_shares)
            self._rebound(old_total)
        elif event.kind is CgroupEventKind.MEMORY_CHANGED:
            ns = self.lookup(event.cgroup)
            if ns is not None:
                ns.refresh_memory_limits()
        elif event.kind is CgroupEventKind.DESTROYED:
            ns = self._drop(event.cgroup.path)
            if ns is not None:
                ns.stop_timer()
        # CREATED is a no-op: registration happens when the container
        # runtime finishes namespace setup.
