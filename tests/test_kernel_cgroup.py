"""Tests for the cgroup hierarchy, controllers, and event bus."""

import math

import pytest

from repro.container.spec import ContainerSpec
from repro.core.effective_cpu import compute_cpu_bounds
from repro.errors import CgroupError
from repro.kernel.cgroup import (DEFAULT_SHARES, CgroupEventKind, CgroupRoot)
from repro.kernel.cpu import CpuSet, HostCpus
from repro.kernel.task import SimThread
from repro.units import gib
from repro.world import World


@pytest.fixture
def root():
    return CgroupRoot(HostCpus(20))


class TestHierarchy:
    def test_root_path(self, root):
        assert root.root.path == "/"

    def test_child_paths(self, root):
        docker = root.root.create_child("docker")
        c1 = docker.create_child("c1")
        assert docker.path == "/docker"
        assert c1.path == "/docker/c1"

    def test_duplicate_child_rejected(self, root):
        root.root.create_child("a")
        with pytest.raises(CgroupError):
            root.root.create_child("a")

    def test_bad_names_rejected(self, root):
        with pytest.raises(CgroupError):
            root.root.create_child("")
        with pytest.raises(CgroupError):
            root.root.create_child("a/b")

    def test_lookup(self, root):
        c1 = root.root.create_child("docker").create_child("c1")
        assert root.lookup("/docker/c1") is c1
        assert root.lookup("/") is root.root

    def test_lookup_missing(self, root):
        with pytest.raises(CgroupError):
            root.lookup("/nope")

    def test_lookup_relative_rejected(self, root):
        with pytest.raises(CgroupError):
            root.lookup("docker")

    def test_destroy(self, root):
        c = root.root.create_child("c")
        c.destroy()
        assert "c" not in root.root.children
        with pytest.raises(CgroupError):
            root.lookup("/c")

    def test_destroy_root_rejected(self, root):
        with pytest.raises(CgroupError):
            root.root.destroy()

    def test_destroy_with_children_rejected(self, root):
        c = root.root.create_child("c")
        c.create_child("grand")
        with pytest.raises(CgroupError):
            c.destroy()

    def test_destroy_with_live_threads_rejected(self, root):
        c = root.root.create_child("c")
        SimThread("t", c)
        with pytest.raises(CgroupError):
            c.destroy()

    def test_destroy_after_threads_exit(self, root):
        c = root.root.create_child("c")
        t = SimThread("t", c)
        t.exit()
        c.destroy()

    def test_walk_visits_all(self, root):
        d = root.root.create_child("docker")
        d.create_child("c1")
        d.create_child("c2")
        paths = {cg.path for cg in root.walk()}
        assert paths == {"/", "/docker", "/docker/c1", "/docker/c2"}


class TestCpuController:
    def test_default_shares(self, root):
        assert root.root.cpu.shares == DEFAULT_SHARES

    def test_set_shares(self, root):
        c = root.root.create_child("c")
        c.set_cpu_shares(512)
        assert c.cpu.shares == 512

    def test_shares_minimum(self, root):
        with pytest.raises(CgroupError):
            root.root.create_child("c").set_cpu_shares(1)

    def test_quota_cores(self, root):
        c = root.root.create_child("c")
        assert c.quota_cores == float("inf")
        c.set_cpu_quota(400_000, 100_000)
        assert c.quota_cores == 4.0

    def test_quota_lift(self, root):
        c = root.root.create_child("c")
        c.set_cpu_quota(100_000)
        c.set_cpu_quota(None)
        assert c.quota_cores == float("inf")

    def test_bad_quota(self, root):
        c = root.root.create_child("c")
        with pytest.raises(CgroupError):
            c.set_cpu_quota(0)
        with pytest.raises(CgroupError):
            c.set_cpu_quota(1000, 10)

    def test_cpuset(self, root):
        c = root.root.create_child("c")
        c.set_cpuset("0-1")
        assert c.effective_cpuset() == CpuSet([0, 1])

    def test_cpuset_default_inherits_host(self, root):
        c = root.root.create_child("c")
        assert len(c.effective_cpuset()) == 20

    def test_cpuset_validated_against_host(self, root):
        c = root.root.create_child("c")
        with pytest.raises(CgroupError):
            c.set_cpuset("19-25")

    def test_cpuset_empty_rejected(self, root):
        c = root.root.create_child("c")
        with pytest.raises(CgroupError):
            c.set_cpuset(CpuSet([]))


class TestMemoryController:
    def test_defaults_unlimited(self, root):
        m = root.root.create_child("c").memory
        assert m.hard_limit == float("inf")
        assert m.soft_limit == float("inf")

    def test_set_limits(self, root):
        c = root.root.create_child("c")
        c.set_memory_limit(1 << 30)
        c.set_memory_soft_limit(1 << 29)
        assert c.memory.hard_limit == float(1 << 30)
        assert c.memory.soft_limit == float(1 << 29)

    def test_bad_limits(self, root):
        c = root.root.create_child("c")
        with pytest.raises(CgroupError):
            c.set_memory_limit(0)
        with pytest.raises(CgroupError):
            c.set_memory_soft_limit(-5)

    def test_usage_is_resident_plus_swapped(self, root):
        m = root.root.create_child("c").memory
        m.resident = 100
        m.swapped = 50
        assert m.usage_in_bytes == 150


class TestRejectedWrites:
    """A rejected write raises CgroupError, changes nothing, fires nothing."""

    @staticmethod
    def watched(root):
        c, seen = root.root.create_child("c"), []
        root.subscribe(seen.append)
        return c, seen

    def test_quota_rejection_keeps_period(self):
        world = World(ncpus=8, memory=gib(4))
        c = world.containers.create(ContainerSpec("c0"))
        c.cgroup.set_cpu_quota(400_000, 100_000)
        with pytest.raises(CgroupError):
            c.cgroup.set_cpu_quota(-1, 200_000)
        assert c.cgroup.cpu.cfs_period_us == 100_000
        assert c.cgroup.cpu.cfs_quota_us == 400_000
        assert c.sys_ns.bounds == compute_cpu_bounds(
            c.cgroup, [c.cgroup.cpu.shares], 8)
        assert (c.sys_ns.bounds.lower, c.sys_ns.bounds.upper) == (4, 4)

    @pytest.mark.parametrize("quota,period", [
        (math.inf, None), (math.nan, None), (150_000.5, None),
        (100_000, math.inf), (100_000, math.nan), (100_000, 2500.5)])
    def test_quota_rejects_non_finite_and_fractional(self, root, quota, period):
        c, seen = self.watched(root)
        c.set_cpu_quota(200_000, 100_000)
        del seen[:]
        with pytest.raises(CgroupError):
            c.set_cpu_quota(quota, period)
        assert (c.cpu.cfs_quota_us, c.cpu.cfs_period_us) == (200_000, 100_000)
        assert seen == []

    @pytest.mark.parametrize("shares", [2.5, math.nan, math.inf, "2048"])
    def test_shares_rejects_non_finite_and_fractional(self, root, shares):
        c, seen = self.watched(root)
        with pytest.raises(CgroupError):
            c.set_cpu_shares(shares)
        assert c.cpu.shares == DEFAULT_SHARES
        assert seen == []

    @pytest.mark.parametrize("setter", ["set_memory_limit",
                                        "set_memory_soft_limit"])
    @pytest.mark.parametrize("limit", [math.nan, math.inf, 1.5])
    def test_memory_limits_reject_non_finite_and_fractional(self, root, setter,
                                                             limit):
        c, seen = self.watched(root)
        with pytest.raises(CgroupError):
            getattr(c, setter)(limit)
        assert c.memory.limit_in_bytes is None
        assert c.memory.soft_limit_in_bytes is None
        assert seen == []

    def test_integral_floats_are_stored_as_int(self, root):
        c = root.root.create_child("c")
        c.set_cpu_shares(2048.0)
        c.set_cpu_quota(300_000.0, 100_000.0)
        c.set_memory_limit(float(1 << 30))
        assert type(c.cpu.shares) is int and c.cpu.shares == 2048
        assert type(c.cpu.cfs_quota_us) is int
        assert type(c.cpu.cfs_period_us) is int
        assert type(c.memory.limit_in_bytes) is int


class TestEventBus:
    def test_events_published(self, root):
        seen = []
        root.subscribe(lambda e: seen.append((e.kind, e.cgroup.name)))
        c = root.root.create_child("c")
        c.set_cpu_shares(2048)
        c.set_memory_limit(1 << 20)
        c.destroy()
        kinds = [k for k, _ in seen]
        assert kinds == [CgroupEventKind.CREATED, CgroupEventKind.CPU_CHANGED,
                         CgroupEventKind.MEMORY_CHANGED, CgroupEventKind.DESTROYED]

    def test_unsubscribe(self, root):
        seen = []
        fn = lambda e: seen.append(e)  # noqa: E731
        root.subscribe(fn)
        root.unsubscribe(fn)
        root.root.create_child("c")
        assert seen == []


class TestThreadMembership:
    def test_runnable_tracking(self, root):
        c = root.root.create_child("c")
        t = SimThread("t", c)
        assert c.n_runnable() == 0
        t.assign_work(1.0)
        assert c.n_runnable() == 1
        t.block()
        assert c.n_runnable() == 0
        t.wake()
        assert c.n_runnable() == 1
        t.exit()
        assert c.n_runnable() == 0
        assert t not in c.threads

    def test_dirty_hook_fires_on_state_change(self, root):
        calls = []
        root.set_dirty_hook(lambda cg, topology: calls.append((cg, topology)))
        c = root.root.create_child("c")
        t = SimThread("t", c)
        t.assign_work(1.0)
        assert len(calls) >= 2  # attach + wake
