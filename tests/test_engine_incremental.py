"""The incremental engine's determinism and exactness contracts.

Three layers of evidence that the O(changed) engine is *identical* to
the brute-force reference, not merely close:

* **Golden trace** — a committed JSONL fixture that both engine modes
  must reproduce byte-for-byte, run after run (regenerate only for an
  intentional behaviour change: ``python -m tests.engine_scenarios
  --write``).
* **Property tests** — the two-level completion index against a
  brute-force scan over every runnable thread, on randomized fleets.
* **Paired stepping** — two worlds (one per engine) driven through the
  same randomized perturbation script must agree on every float they
  expose at every step; likewise two bare schedulers under random
  block/wake scripts, and under same-tick completion pileups, where
  both must finish threads in the canonical (cgroup seq, tid) order.
* **Serve shape** — many quota-capped groups on one shared mask, so the
  domain pressure stays above 1 and every solve re-rates every member:
  the publication and PSI accrual paths the golden trace barely
  touches must still leave every engine with equal snapshots and
  pressure files.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.container.spec import ContainerSpec
from repro.kernel.cgroup import CgroupRoot
from repro.kernel.cpu import HostCpus
from repro.kernel.sched.fair import FairScheduler
from repro.kernel.task import SimThread
from repro.units import mib
from repro.world import World
from tests.engine_scenarios import GOLDEN_PATH, run_scenario


class TestGoldenTrace:
    def test_incremental_matches_committed_fixture(self):
        assert run_scenario("incremental") == GOLDEN_PATH.read_text()

    def test_scan_matches_committed_fixture(self):
        assert run_scenario("scan") == GOLDEN_PATH.read_text()

    def test_repeat_runs_byte_identical(self):
        assert run_scenario("incremental") == run_scenario("incremental")


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        from repro.errors import SimulationError
        # A removed engine name must fail loudly, not fall back.
        for engine in ("psychic", "vector"):
            with pytest.raises(SimulationError):
                World(ncpus=2, engine=engine)

    def test_modes_expose_engine_attr(self):
        assert World(ncpus=2).engine == "incremental"
        assert World(ncpus=2, engine="scan").engine == "scan"
        assert World(ncpus=2, engine="scan").sched.incremental is False


def _random_fleet(rng: random.Random, ncpus: int = 8, *,
                  incremental: bool = True):
    """A scheduler over a random hierarchy with random runnable threads."""
    host = HostCpus(ncpus)
    root = CgroupRoot(host)
    sched = FairScheduler(host, root, incremental=incremental)
    groups = []
    threads = []
    for i in range(rng.randrange(1, 7)):
        cg = root.root.create_child(f"g{i}")
        if rng.random() < 0.4:
            lo = rng.randrange(0, ncpus - 1)
            hi = rng.randrange(lo, ncpus - 1)
            cg.set_cpuset(f"{lo}-{hi + 1}")
        if rng.random() < 0.3:
            cg.set_cpu_quota(rng.randrange(50_000, 400_000))
        if rng.random() < 0.3:
            cg.set_cpu_shares(rng.choice((256, 512, 2048)))
        groups.append(cg)
        for j in range(rng.randrange(0, 4)):
            t = SimThread(f"t{i}.{j}", cg)
            t.assign_work(rng.uniform(0.01, 2.0))
            threads.append(t)
    return sched, groups, threads


def _brute_force_next_completion(sched) -> float:
    best = float("inf")
    for g in sched.snapshot:
        for t in g.cgroup.runnable_threads:
            best = min(best, t.time_to_completion())
    return best


class TestCompletionIndexProperties:
    @pytest.mark.parametrize("seed", range(12))
    def test_index_matches_brute_force_scan(self, seed):
        rng = random.Random(seed)
        sched, groups, threads = _random_fleet(rng)
        sched.reallocate()
        for _ in range(60):
            # Random perturbation: advance, assign, block, wake.
            op = rng.random()
            if op < 0.45 and threads:
                t = rng.choice(threads)
                t.assign_work(rng.uniform(0.0, 1.5))
            elif op < 0.6 and threads:
                t = rng.choice(threads)
                if t.runnable:
                    t.block()
                else:
                    t.wake()
            elif op < 0.75:
                ttc = sched.next_completion()
                dt = rng.uniform(0.001, 0.3)
                if ttc != float("inf"):
                    dt = min(dt, ttc)
                sched.advance(dt)
            if sched.dirty:
                sched.reallocate()
            assert sched.next_completion() == _brute_force_next_completion(sched)

    @pytest.mark.parametrize("seed", range(6))
    def test_pop_finished_matches_scan_of_due_threads(self, seed):
        rng = random.Random(1000 + seed)
        sched, groups, threads = _random_fleet(rng)
        sched.reallocate()
        for _ in range(40):
            ttc = sched.next_completion()
            if ttc == float("inf"):
                for t in threads:
                    if not t.runnable:
                        t.wake()
                        t.assign_work(rng.uniform(0.01, 0.5))
                        break
                else:
                    break
                sched.reallocate()
                continue
            sched.advance(ttc)
            expected = sorted(
                (t for g in sched.snapshot
                 for t in g.cgroup.runnable_threads if t.segment_finished),
                key=lambda t: (t.cgroup.seq, t.tid))
            got = sched.pop_finished()
            assert got == expected
            assert expected, "advancing by next_completion must make a thread due"
            for t in got:
                t._finish_segment()
                t.assign_work(rng.uniform(0.01, 0.8))
            if sched.dirty:
                sched.reallocate()


class TestPairedEngines:
    @pytest.mark.parametrize("seed", range(4))
    def test_worlds_agree_step_by_step(self, seed):
        rng = random.Random(2000 + seed)
        worlds = [World(ncpus=6, engine=e, seed=seed)
                  for e in ("incremental", "scan")]
        containers = []
        for w in worlds:
            cs = [w.containers.create(ContainerSpec(
                f"c{i}", cpuset="0-2" if i == 0 else None,
                memory_limit=mib(64))) for i in range(3)]
            for i, c in enumerate(cs):
                for j in range(i + 1):
                    c.spawn_thread(f"w{j}").assign_work(0.05 * (j + 1))
            containers.append(cs)
        script = [(rng.uniform(0.01, 0.2), rng.randrange(3), rng.random())
                  for _ in range(30)]
        for dt, idx, action in script:
            for w, cs in zip(worlds, containers):
                w.run(until=w.now + dt)
                t = cs[idx].spawn_thread("x") if action < 0.2 else None
                if t is not None:
                    t.assign_work(0.03)
                elif action < 0.4:
                    cs[idx].cgroup.set_cpu_shares(
                        256 + int(action * 1000))
            a, b = worlds
            assert a.now == b.now
            assert a.sched.total_allocated() == b.sched.total_allocated()
            assert a.loadavg.load_1 == b.loadavg.load_1
            for ca, cb in zip(*containers):
                assert ca.cgroup.cpu_rate == cb.cgroup.cpu_rate
                assert ca.cgroup.total_cpu_time == cb.cgroup.total_cpu_time
                assert ca.cgroup.progress_acc == cb.cgroup.progress_acc
                assert (ca.cgroup.pressure.cpu.some_total
                        == cb.cgroup.pressure.cpu.some_total)


def _serve_shape(engine: str, seed: int, n_groups: int = 32):
    """One 8-CPU host, ``n_groups`` replicas of 3 workers at 0.2 cores.

    Demand (3 threads) is far above every quota, so each group runs at
    its quota, accrues throttle and CPU stall time on every step, and
    the shared domain's pressure stays well above 1.  Workers finish
    random segments and sometimes idle before the next one, so the
    runnable counts (and with them the pressure and every member's
    efficiency) keep moving.
    """
    world = World(ncpus=8, seed=seed, engine=engine)
    rng = random.Random(seed)
    pressures = []
    containers = []
    def worker(t):
        def work():
            t.assign_work(rng.uniform(0.0005, 0.004), done)

        def done(_t):
            if rng.random() < 0.3:
                t.block()
                world.events.call_after(rng.uniform(0.001, 0.01),
                                        lambda: (t.wake(), work()))
            else:
                work()

        work()

    for i in range(n_groups):
        c = world.containers.create(ContainerSpec(f"r{i:02d}", cpus=0.2))
        containers.append(c)
        for j in range(3):
            worker(c.spawn_thread(f"w{j}"))

    def sample():
        pressures.append(world.sched.contention_pressure(
            containers[0].cgroup))

    world.events.call_every(0.05, sample, name="sample")
    world.run(until=1.0)
    files = [world.cgroupfs.read(f"/sys/fs/cgroup/cpu{c.cgroup.path}"
                                 f"/cpu.pressure") for c in containers]
    files.append(world.cgroupfs.read("/sys/fs/cgroup/cpu/cpu.pressure"))
    return world.invariant_snapshot(), files, pressures


class TestServeShapeEngines:
    @pytest.mark.parametrize("seed", range(2))
    def test_engines_agree_under_domain_pressure(self, seed):
        ref_snap, ref_files, pressures = _serve_shape("incremental", seed)
        # The shape really is the contended one.
        assert min(pressures) > 1.0
        assert all(g["throttled_time"] > 0.0 and g["psi_cpu_some"] > 0.0
                   for g in ref_snap["groups"]
                   if g["path"].startswith("/docker/"))
        snap, files, _ = _serve_shape("scan", seed)
        assert snap == ref_snap
        assert files == ref_files


def _paired_fleets(seed: int):
    """Two identical random fleets, one per engine (incremental, scan)."""
    pairs = []
    for incremental in (True, False):
        sched, _groups, threads = _random_fleet(random.Random(seed),
                                                incremental=incremental)
        pairs.append((sched, threads))
    return pairs


def _rates(sched) -> list[tuple[str, float, float, float]]:
    return [(g.cgroup.name, g.rate, g.efficiency, g.pressure)
            for g in sorted(sched.snapshot, key=lambda g: g.cgroup.seq)]


class TestPairedSolves:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_fleets_solve_identically(self, seed):
        (inc, i_threads), (scan, s_threads) = _paired_fleets(3000 + seed)
        rng = random.Random(seed)
        for sched in (inc, scan):
            sched.reallocate()
        assert _rates(inc) == _rates(scan)
        for _ in range(40):
            op = rng.random()
            for threads in (i_threads, s_threads):
                if op < 0.4 and threads:
                    t = threads[int(op * 100) % len(threads)]
                    t.assign_work(0.01 + op)
                elif op < 0.55 and threads:
                    t = threads[int(op * 100) % len(threads)]
                    if t.runnable:
                        t.block()
                    else:
                        t.wake()
            for sched in (inc, scan):
                # Re-solve before querying, as World.step does: the scan
                # engine answers from the last published snapshot.
                if sched.dirty:
                    sched.reallocate()
                ttc = sched.next_completion()
                dt = 0.001 + op * 0.2
                if ttc != float("inf"):
                    dt = min(dt, ttc)
                sched.advance(dt)
                if sched.dirty:
                    sched.reallocate()
            assert _rates(inc) == _rates(scan)
            assert inc.next_completion() == scan.next_completion()
            # tids are process-global and differ between the two fleets;
            # names encode the same (group, spawn index) identity.
            done_i, done_s = inc.pop_finished(), scan.pop_finished()
            assert ([(t.cgroup.name, t.name) for t in done_i]
                    == [(t.cgroup.name, t.name) for t in done_s])
            # Retire what finished, as World does for a segment with no
            # continuation: the scan engine re-reports a due thread until
            # it leaves the runnable set.
            for t in done_i + done_s:
                t._finish_segment()
                t.block()


class TestTieBreakProperty:
    """Equal-weight/equal-cap pileups: the degenerate case where every
    group gets the same rate and whole cohorts finish on the same tick.
    Both engines must emit the identical (cgroup seq, tid) completion
    order — the canonical order the telemetry contract depends on."""

    @settings(max_examples=40, deadline=None)
    @given(n_groups=st.integers(min_value=1, max_value=5),
           n_threads=st.integers(min_value=1, max_value=4),
           ncpus=st.integers(min_value=1, max_value=8),
           quantum=st.integers(min_value=1, max_value=50))
    def test_pileup_completion_order_identical(self, n_groups, n_threads,
                                               ncpus, quantum):
        work = quantum * 0.01
        orders = []
        for incremental in (True, False):
            host = HostCpus(ncpus)
            root = CgroupRoot(host)
            sched = FairScheduler(host, root, incremental=incremental)
            for i in range(n_groups):
                cg = root.root.create_child(f"g{i}")
                for j in range(n_threads):
                    SimThread(f"t{j}", cg).assign_work(work)
            sched.reallocate()
            order = []
            while True:
                ttc = sched.next_completion()
                if ttc == float("inf"):
                    break
                sched.advance(ttc)
                done = sched.pop_finished()
                assert done, "advance(next_completion) must finish a thread"
                # The canonical in-batch order is (cgroup seq, tid).
                keys = [(t.cgroup.seq, t.tid) for t in done]
                assert keys == sorted(keys)
                # tids/seqs are process-global counters, so compare the
                # two fleets by stable names instead.
                order.append([(t.cgroup.name, t.name) for t in done])
                for t in done:
                    t._finish_segment()
                    t.block()
                if sched.dirty:
                    sched.reallocate()
            orders.append(order)
        assert orders[0] == orders[1]


class TestRunUntilAccrual:
    def test_trailing_gap_accrues_usage_not_just_clock(self):
        # A busy thread with no events pending: run(until=) must charge
        # the whole interval, not silently jump the clock over the tail.
        world = World(ncpus=2)
        c = world.containers.create(ContainerSpec("c"))
        c.spawn_thread("w").assign_work(1e9)
        world.run(until=5.0)
        assert world.now == 5.0
        assert c.cgroup.total_cpu_time == pytest.approx(5.0)
        # Idle accounting covers the same stretch on the host side.
        assert world.sched.total_idle_time == pytest.approx(5.0)

    def test_loadavg_sees_trailing_gap(self):
        world = World(ncpus=2)
        c = world.containers.create(ContainerSpec("c"))
        for i in range(4):
            c.spawn_thread(f"w{i}").assign_work(1e9)
        world.run(until=60.0)
        # 4 runnable threads sustained for a minute: load_1 approaches 4.
        assert world.loadavg.load_1 > 2.0
