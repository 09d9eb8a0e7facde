"""Edge-case tests for the world loop and scheduler corner states."""

import contextlib
import signal

import pytest

from repro.container.spec import ContainerSpec
from repro.errors import SimulationError
from repro.units import gib
from repro.world import World


@pytest.fixture
def world():
    return World(ncpus=4, memory=gib(8))


class TestRunBudget:
    def test_max_steps_bounds_the_loop(self, world):
        c = world.containers.create(ContainerSpec("c0"))
        t = c.spawn_thread("w")

        def rechain(th):
            th.assign_work(0.1, rechain)
        t.assign_work(0.1, rechain)
        world.run(max_steps=5)
        assert world.steps <= 6

    def test_run_until_exact_deadline(self, world):
        world.containers.create(ContainerSpec("c0"))
        world.run(until=1.2345)
        assert world.now == pytest.approx(1.2345)

    def test_run_twice_is_cumulative(self, world):
        world.containers.create(ContainerSpec("c0"))
        world.run(until=1.0)
        world.run(until=2.0)
        assert world.now == pytest.approx(2.0)

    def test_run_until_past_deadline_noop(self, world):
        world.run(until=2.0)
        world.run(until=1.0)  # already past: no time travel
        assert world.now == 2.0


@contextlib.contextmanager
def _fail_after(seconds: float):
    """Turn a hang into a test failure (a NaN deadline used to spin forever)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestTimeInputValidation:
    """Bad time inputs are refused before they change any state."""

    @pytest.fixture
    def busy_world(self, world):
        c = world.containers.create(ContainerSpec("c0"))
        c.spawn_thread("w").assign_work(1e9)
        world.run(until=0.5)
        return world

    @pytest.mark.parametrize("period", [0, -1, 0.0, float("nan"),
                                        float("inf"), float("-inf")])
    def test_bad_update_period_rejected_at_construction(self, period):
        # Refused by the constructor: a rejection at the first
        # ``containers.create`` would come after that container's cgroup
        # and namespace already exist.
        with pytest.raises(SimulationError, match="sys_ns_update_period"):
            World(ncpus=4, memory=gib(8), sys_ns_update_period=period)

    def test_good_update_period_drives_the_timer(self):
        w = World(ncpus=4, memory=gib(8), sys_ns_update_period=0.01)
        c = w.containers.create(ContainerSpec("c0"))
        w.run(until=0.1)
        assert c.sys_ns.update_count == 10

    def test_nan_until_rejected_without_side_effects(self, busy_world):
        before = busy_world.invariant_snapshot()
        with _fail_after(10.0), pytest.raises(SimulationError):
            busy_world.run(until=float("nan"))
        assert busy_world.invariant_snapshot() == before

    def test_nan_timeout_rejected_without_side_effects(self, busy_world):
        before = busy_world.invariant_snapshot()
        with _fail_after(10.0), pytest.raises(SimulationError):
            busy_world.run_until(lambda: False, timeout=float("nan"))
        assert busy_world.invariant_snapshot() == before


class TestCascadeGuard:
    def test_zero_work_chains_converge(self, world):
        """Finite chains of zero-length segments complete in one step."""
        c = world.containers.create(ContainerSpec("c0"))
        t = c.spawn_thread("w")
        hops = []

        def hop(th):
            hops.append(world.now)
            if len(hops) < 50:
                th.assign_work(0.0, hop)
            else:
                th.block()
        t.assign_work(0.0, hop)
        world.run(until=1.0)
        assert len(hops) == 50
        assert all(t == 0.0 for t in hops)

    def test_unbounded_zero_work_cascade_raises(self, world):
        c = world.containers.create(ContainerSpec("c0"))
        t = c.spawn_thread("w")

        def forever(th):
            th.assign_work(0.0, forever)
        t.assign_work(0.0, forever)
        with pytest.raises(SimulationError):
            world.run(until=1.0)


class TestSchedulerCorners:
    def test_all_threads_blocked_advances_by_timers_only(self, world):
        c = world.containers.create(ContainerSpec("c0"))
        t = c.spawn_thread("w")
        t.assign_work(5.0)
        t.block()
        world.run(until=2.0)
        assert t.remaining == 5.0  # no progress while blocked
        assert world.now == 2.0    # sys_ns timers kept time moving

    def test_wake_resumes_partial_segment(self, world):
        c = world.containers.create(ContainerSpec("c0"))
        done = []
        t = c.spawn_thread("w")
        t.assign_work(2.0, lambda th: done.append(world.now))
        world.run(until=1.0)
        t.block()
        world.run(until=3.0)
        t.wake()
        world.run(until=5.0)
        # 1s progress + 2s paused + 1s progress -> completion at t=4.
        assert done == [pytest.approx(4.0)]

    def test_exited_thread_ignored_by_scheduler(self, world):
        c = world.containers.create(ContainerSpec("c0"))
        t = c.spawn_thread("w")
        t.assign_work(10.0)
        t.exit()
        world.run(until=1.0)
        assert c.cgroup.cpu_rate == 0.0

    def test_empty_cpuset_component_isolated(self, world):
        """Two containers pinned to disjoint CPUs cannot starve each other."""
        a = world.containers.create(ContainerSpec("a", cpuset="0-1"))
        b = world.containers.create(ContainerSpec("b", cpuset="2-3"))
        for i in range(8):
            a.spawn_thread(f"x{i}").assign_work(1e9)
        done = []
        t = b.spawn_thread("y")
        t.assign_work(2.0, lambda th: done.append(world.now))
        world.run(until=5.0)
        # b's single thread had its own 2 CPUs: finished at 2s sharp.
        assert done == [pytest.approx(2.0)]

    def test_quota_change_mid_run_takes_effect(self, world):
        c = world.containers.create(ContainerSpec("c0"))
        done = []
        for i in range(4):
            t = c.spawn_thread(f"w{i}")
            t.assign_work(4.0, lambda th: done.append(world.now))
        world.run(until=0.5)   # 4 threads on 4 cores: full speed
        c.cgroup.set_cpu_quota(100_000)  # throttle to 1 core
        world.run(until=25.0)
        # 0.5s at rate 1.0 each; then 3.5 cpu-s left each at
        # 0.25/(1 + 0.05*3) per second (quota share + csw penalty).
        expected = 0.5 + 3.5 / (0.25 / 1.15)
        assert done[-1] == pytest.approx(expected, rel=0.02)

    def test_share_change_rebalances_immediately(self, world):
        a = world.containers.create(ContainerSpec("a"))
        b = world.containers.create(ContainerSpec("b"))
        for i in range(4):
            a.spawn_thread(f"a{i}").assign_work(1e9)
            b.spawn_thread(f"b{i}").assign_work(1e9)
        world.run(until=1.0)
        assert a.cgroup.cpu_rate == pytest.approx(2.0)
        a.cgroup.set_cpu_shares(3 * 1024)
        world.run(until=1.001)
        assert a.cgroup.cpu_rate == pytest.approx(3.0)
        assert b.cgroup.cpu_rate == pytest.approx(1.0)


class TestCallbackExceptions:
    def test_event_callback_exception_propagates(self, world):
        def boom():
            raise RuntimeError("bad timer")
        world.events.call_at(1.0, boom)
        with pytest.raises(RuntimeError, match="bad timer"):
            world.run(until=2.0)
        # The failing event was consumed; the world remains usable.
        world.run(until=2.0)
        assert world.now == 2.0

    def test_segment_callback_exception_propagates(self, world):
        c = world.containers.create(ContainerSpec("c0"))
        t = c.spawn_thread("w")

        def boom(th):
            raise ValueError("bad continuation")
        t.assign_work(0.5, boom)
        with pytest.raises(ValueError, match="bad continuation"):
            world.run(until=2.0)

    def test_trace_survives_failed_run(self, world):
        world.trace.enabled = True
        c = world.containers.create(ContainerSpec("c0"))
        t = c.spawn_thread("w")
        t.assign_work(0.5, lambda th: (_ for _ in ()).throw(RuntimeError()))
        with pytest.raises(RuntimeError):
            world.run(until=2.0)
        assert world.trace.count("container.create") == 1
