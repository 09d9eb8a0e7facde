"""ns_monitor: incremental share bookkeeping against the full recomputation.

The monitor keeps ``sum(w_j)`` as a running integer and, when it moves,
re-bounds only the namespaces whose share term can change.  These tests
hold it to the definition: after any sequence of container churn,
cgroup edits and rejected writes, every live namespace's bounds equal
``compute_cpu_bounds`` over the live contention set.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.container.spec import ContainerSpec
from repro.core.effective_cpu import compute_cpu_bounds, share_cpus
from repro.core.sys_namespace import SysNamespace
from repro.errors import CgroupError
from repro.kernel.cpu import CpuSet
from repro.units import gib
from repro.world import World


def check_views(world: World) -> None:
    live = world.ns_monitor.namespaces
    assert sorted(ns.cgroup.name for ns in live) == sorted(
        c.name for c in world.containers)
    shares = [ns.cgroup.cpu.shares for ns in live]
    assert world.ns_monitor.total_shares == sum(shares)
    for ns in live:
        assert ns.bounds == compute_cpu_bounds(ns.cgroup, shares,
                                               world.host.ncpus)
        assert ns.bounds.lower <= ns.e_cpu <= ns.bounds.upper


def config(cg) -> tuple:
    return (cg.cpu.shares, cg.cpu.cfs_quota_us, cg.cpu.cfs_period_us,
            cg.cpuset.cpus, cg.memory.limit_in_bytes,
            cg.memory.soft_limit_in_bytes)


#: Writes every cgroup setter must refuse without changing anything.
REJECTED = {
    "shares-too-small": lambda cg: cg.set_cpu_shares(1),
    "shares-fractional": lambda cg: cg.set_cpu_shares(2.5),
    "shares-nan": lambda cg: cg.set_cpu_shares(math.nan),
    "quota-negative-with-period": lambda cg: cg.set_cpu_quota(-1, 200_000),
    "quota-inf": lambda cg: cg.set_cpu_quota(math.inf),
    "period-nan": lambda cg: cg.set_cpu_quota(100_000, math.nan),
    "memory-nan": lambda cg: cg.set_memory_limit(math.nan),
    "soft-fractional": lambda cg: cg.set_memory_soft_limit(1.5),
    "cpuset-off-host": lambda cg: cg.set_cpuset(CpuSet([99])),
}

shares_values = st.one_of(st.sampled_from([2, 3, 512, 1024, 2048]),
                          st.integers(min_value=2, max_value=1 << 18))

op = st.one_of(
    st.tuples(st.just("create"), shares_values, st.booleans()),
    st.tuples(st.just("destroy"), st.integers(min_value=0)),
    st.tuples(st.just("shares"), st.integers(min_value=0), shares_values),
    st.tuples(st.just("quota"), st.integers(min_value=0),
              st.one_of(st.none(), st.floats(min_value=0.1, max_value=20.0)),
              st.sampled_from([None, 50_000, 100_000, 250_000])),
    st.tuples(st.just("cpuset"), st.integers(min_value=0),
              st.one_of(st.none(), st.sets(st.integers(0, 15), min_size=1))),
    st.tuples(st.just("reject"), st.integers(min_value=0),
              st.sampled_from(sorted(REJECTED))),
    st.tuples(st.just("run"), st.floats(min_value=0.01, max_value=0.3)),
)


class TestAgainstFullRecompute:
    @settings(max_examples=200, deadline=None)
    @given(ncpus=st.integers(min_value=1, max_value=16),
           ops=st.lists(op, min_size=1, max_size=40))
    def test_bounds_match_compute_cpu_bounds(self, ncpus, ops):
        world = World(ncpus=ncpus, memory=gib(4))
        events = []
        world.cgroups.subscribe(events.append)
        made = 0
        for step in ops:
            kind, live = step[0], list(world.containers)
            if kind == "create":
                c = world.containers.create(
                    ContainerSpec(f"c{made}", cpu_shares=step[1]))
                made += 1
                if step[2]:
                    c.spawn_thread("busy").assign_work(1e9)
            elif kind == "run":
                world.run(until=world.clock.now + step[1])
            elif not live:
                continue
            else:
                c = live[step[1] % len(live)]
                cg = c.cgroup
                if kind == "destroy":
                    world.containers.destroy(c)
                elif kind == "shares":
                    cg.set_cpu_shares(step[2])
                elif kind == "quota":
                    period = step[3] or cg.cpu.cfs_period_us
                    quota = (None if step[2] is None
                             else max(1000, int(step[2] * period)))
                    cg.set_cpu_quota(quota, step[3])
                elif kind == "cpuset":
                    cpus = None if step[2] is None else CpuSet(
                        {i % ncpus for i in step[2]})
                    cg.set_cpuset(cpus)
                else:
                    before, n_events = config(cg), len(events)
                    with pytest.raises(CgroupError):
                        REJECTED[step[2]](cg)
                    assert config(cg) == before
                    assert len(events) == n_events
            check_views(world)


def count_refreshes(monkeypatch) -> list[int]:
    calls = [0]
    original = SysNamespace.refresh_cpu_bounds

    def counted(self, total_shares):
        calls[0] += 1
        return original(self, total_shares)

    monkeypatch.setattr(SysNamespace, "refresh_cpu_bounds", counted)
    return calls


class TestWork:
    N = 200

    def test_admission_and_teardown_are_linear(self, monkeypatch):
        calls = count_refreshes(monkeypatch)
        world = World(ncpus=8, memory=gib(16))
        containers = [world.containers.create(ContainerSpec(f"c{i}"))
                      for i in range(self.N)]
        # A full re-bound per admission would be N(N+1)/2 = 20100.
        assert calls[0] <= 2 * self.N
        check_views(world)
        calls[0] = 0
        for c in containers:
            world.containers.destroy(c)
        assert calls[0] <= 2 * self.N
        assert world.ns_monitor.total_shares == 0


class TestShareTerm:
    @given(w1=st.integers(2, 1 << 20), w2=st.integers(2, 1 << 20),
           s1=st.integers(1, 1 << 30), s2=st.integers(1, 1 << 30),
           ncpus=st.integers(1, 256))
    def test_monotone(self, w1, w2, s1, s2, ncpus):
        """The premise of the monitor's stop rule."""
        (w1, w2), (s1, s2) = sorted((w1, w2)), sorted((s1, s2))
        assert share_cpus(w1, s2, ncpus) <= share_cpus(w2, s2, ncpus)
        assert share_cpus(w1, s2, ncpus) <= share_cpus(w1, s1, ncpus)
