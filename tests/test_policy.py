"""Tests for the pluggable SchedPolicy/ReclaimPolicy boundary.

Coverage, by layer: the registry (names, bundles, third-party
registration), default-policy identity (the refactor must be invisible
under the default bundle), the built-in burstable/intent behaviours,
mid-simulation hot-swap (ledger conservation + self-swap invisibility),
bundle differentials (lawful and identical oracles, planted divergent
policies caught and shrunk to replayable fixtures), the
profiler's policy buckets, cluster wiring, the shared benchmark gate
helpers, and the CLI.
"""

from __future__ import annotations

import argparse
import json
import sys

import pytest

from repro import ContainerSpec, World, gib, mib
from repro.check import run_differential, run_scenario
from repro.check.generator import generate
from repro.check.shrinker import shrink
from repro.errors import CgroupError, ClusterError, ContainerError, PolicyError
from repro.policy import (POLICY_BUNDLES, RECLAIM_POLICIES, SCHED_POLICIES,
                          DefaultReclaimPolicy, DefaultSchedPolicy,
                          make_reclaim_policy, make_sched_policy,
                          register_reclaim_policy, register_sched_policy,
                          resolve_bundle)


def _spin(world: World, name: str, *, cpus=None, workers: int = 2):
    c = world.containers.create(ContainerSpec(name, cpus=cpus))
    for i in range(workers):
        c.spawn_thread(f"w{i}").assign_work(1e9)
    return c


@pytest.fixture
def scratch_policy():
    """Register-and-cleanup helper: yields a registrar, pops on exit."""
    added: list[tuple[str, str]] = []

    def add(kind: str, name: str, cls) -> None:
        if kind == "sched":
            register_sched_policy(name, cls)
        else:
            register_reclaim_policy(name, cls)
        added.append((kind, name))

    yield add
    for kind, name in added:
        (SCHED_POLICIES if kind == "sched" else RECLAIM_POLICIES).pop(name)
        POLICY_BUNDLES.pop(name, None)


class TestRegistry:
    def test_unknown_names_raise(self):
        with pytest.raises(PolicyError, match="unknown sched policy"):
            make_sched_policy("nope")
        with pytest.raises(PolicyError, match="unknown reclaim policy"):
            make_reclaim_policy("nope")
        with pytest.raises(PolicyError, match="unknown policy bundle"):
            resolve_bundle("nope")

    def test_instances_pass_through(self):
        p = DefaultSchedPolicy()
        assert make_sched_policy(p) is p
        r = DefaultReclaimPolicy()
        assert make_reclaim_policy(r) is r

    def test_builtin_bundles(self):
        assert resolve_bundle("default") == ("default", "default")
        assert resolve_bundle("burstable") == ("burstable", "default")
        assert resolve_bundle("intent") == ("default", "intent")
        assert resolve_bundle("intent-reclaim") == ("default", "intent")

    def test_registration_and_duplicate_rejection(self, scratch_policy):
        class Mine(DefaultSchedPolicy):
            name = "mine"

        scratch_policy("sched", "mine", Mine)
        assert isinstance(make_sched_policy("mine"), Mine)
        assert resolve_bundle("mine") == ("mine", "default")
        with pytest.raises(PolicyError, match="already registered"):
            register_sched_policy("mine", Mine)
        register_sched_policy("mine", Mine, replace=True)  # allowed

    def test_world_rejects_unknown_policy(self):
        with pytest.raises(PolicyError):
            World(ncpus=2, sched_policy="nope")
        with pytest.raises(PolicyError):
            World(ncpus=2, reclaim_policy="nope")


class TestDefaultIdentity:
    def test_world_defaults_to_default_policies(self):
        w = World(ncpus=2)
        assert w.sched.policy.name == "default"
        assert w.mm.policy.name == "default"

    def test_explicit_default_is_byte_identical(self):
        """The policy kwargs must be a pure refactor of the old path."""
        scn = generate(5)
        bare = run_scenario(scn, "incremental")
        explicit = run_scenario(scn, "incremental",
                                sched_policy="default",
                                reclaim_policy="default")
        assert bare.snapshots == explicit.snapshots
        assert bare.log == explicit.log


class TestBurstable:
    def test_bursts_through_idle_capacity(self):
        w = World(ncpus=4, sched_policy="burstable")
        c = _spin(w, "a", cpus=1.0, workers=2)
        w.run(until=1.0)
        assert c.cgroup.cpu_rate == pytest.approx(2.0)
        assert c.cgroup.throttled_time == 0.0

    def test_default_throttles_the_same_workload(self):
        w = World(ncpus=4, sched_policy="default")
        c = _spin(w, "a", cpus=1.0, workers=2)
        w.run(until=1.0)
        assert c.cgroup.cpu_rate == pytest.approx(1.0)
        assert c.cgroup.throttled_time == pytest.approx(1.0)

    def test_quotas_reassert_under_contention(self):
        """Oversubscribed domain: burstable collapses to default."""
        results = {}
        for pol in ("default", "burstable"):
            w = World(ncpus=2, sched_policy=pol)
            cs = [_spin(w, n, cpus=0.5, workers=2) for n in ("a", "b")]
            w.run(until=1.0)
            results[pol] = [(c.cgroup.cpu_rate, c.cgroup.throttled_time)
                            for c in cs]
        assert results["burstable"] == results["default"]
        assert all(t > 0 for _, t in results["burstable"])

    def test_rate_cap_is_cpuset_bound(self):
        pol = make_sched_policy("burstable")
        assert pol.rate_cap(1.0, 4.0) == 4.0
        assert make_sched_policy("default").rate_cap(1.0, 4.0) == 1.0


class TestIntentReclaim:
    def _pressured_world(self, reclaim: str):
        w = World(ncpus=2, memory=gib(1), reclaim_policy=reclaim)
        heap = w.containers.create(ContainerSpec("heap",
                                                 memory_intent="heap"))
        scratch = w.containers.create(ContainerSpec("scratch",
                                                    memory_intent="scratch"))
        extra = w.containers.create(ContainerSpec("extra"))
        w.mm.charge(heap.cgroup, mib(200))
        w.mm.charge(scratch.cgroup, mib(200))
        w.mm.charge(extra.cgroup, mib(250))
        w.run(until=0.5)
        return w, heap, scratch

    def test_scratch_evicted_before_heap(self):
        _, heap, scratch = self._pressured_world("intent")
        assert scratch.cgroup.memory.swapped > 0
        assert heap.cgroup.memory.swapped == 0

    def test_same_total_reclaim_as_default(self):
        """Intent reorders victims; it does not change the pressure."""
        totals = {}
        for pol in ("default", "intent"):
            w, _, _ = self._pressured_world(pol)
            totals[pol] = sum(cg.memory.swapped for cg in w.cgroups.walk())
        assert totals["intent"] == totals["default"]
        assert totals["intent"] > 0

    def test_invalid_intent_rejected(self):
        w = World(ncpus=2)
        c = w.containers.create(ContainerSpec("a"))
        with pytest.raises(CgroupError, match="intent"):
            c.cgroup.set_memory_intent("bogus")
        with pytest.raises(ContainerError, match="intent"):
            ContainerSpec("b", memory_intent="bogus")

    def test_intent_is_advisory_under_default(self):
        """Tagging costs nothing unless the intent policy is active."""
        scn = generate(9)
        tagged = generate(9)
        tagged.ops.append({"t": 0.0, "op": "set_intent", "name": "c0",
                           "intent": "scratch"})
        base = run_scenario(scn, "incremental")
        with_tag = run_scenario(tagged, "incremental")
        assert base.snapshots[-1] == with_tag.snapshots[-1]


class TestHotSwap:
    def test_handoff_record_and_ledger_conservation(self):
        w = World(ncpus=4, sched_policy="default")
        _spin(w, "a", cpus=1.0, workers=2)
        w.run(until=0.5)
        handoff = w.swap_policy(sched_policy="burstable")
        assert handoff["sched"]["from"] == "default"
        assert handoff["sched"]["to"] == "burstable"
        assert w.sched.policy.name == "burstable"
        w.run(until=1.0)
        w.swap_policy(sched_policy="default", reclaim_policy="intent")
        assert w.mm.policy.name == "intent"
        w.run(until=1.5)
        assert abs(w.sched.conservation_error()) < 1e-6

    def test_swap_changes_future_only(self):
        """Throttle accrual stops at the swap instant, not before."""
        w = World(ncpus=4, sched_policy="default")
        c = _spin(w, "a", cpus=1.0, workers=2)
        w.run(until=1.0)
        before = c.cgroup.throttled_time
        assert before == pytest.approx(1.0)
        w.swap_policy(sched_policy="burstable")
        w.run(until=2.0)
        assert c.cgroup.throttled_time == before
        assert c.cgroup.cpu_rate == pytest.approx(2.0)

    def test_self_swap_is_invisible(self):
        """default->default mid-run must equal never swapping at all."""
        def drive(do_swap: bool) -> dict:
            w = World(ncpus=3, memory=gib(1), seed=11)
            _spin(w, "a", cpus=0.75, workers=2)
            b = w.containers.create(ContainerSpec("b"))
            w.mm.charge(b.cgroup, mib(300))
            w.run(until=0.7)
            if do_swap:
                w.swap_policy(sched_policy="default",
                              reclaim_policy="default")
            w.mm.charge(b.cgroup, mib(200))
            w.run(until=1.4)
            return w.invariant_snapshot()

        assert drive(False) == drive(True)

    def test_swap_emits_trace_event(self):
        w = World(ncpus=2, trace=True)
        w.run(until=0.1)
        w.swap_policy(sched_policy="burstable")
        assert w.trace.count("policy.swap") == 1
        (event,) = w.trace.events("policy.swap")
        assert event.fields.get("sched") == "burstable"

    def test_broken_handoff_raises_policy_error(self):
        """A policy that perturbs a ledger on import must be rejected."""
        class Vandal(DefaultSchedPolicy):
            name = "vandal"

            def import_state(self, state):
                pass  # fine

            def solve(self, members, capacity, params):
                allocs = super().solve(members, capacity, params)
                for g in allocs:
                    g.cgroup.throttled_time += 1.0   # rewrites the past
                return allocs

        w = World(ncpus=2)
        _spin(w, "a", cpus=0.5, workers=2)
        w.run(until=0.5)
        with pytest.raises(PolicyError, match="ledger"):
            w.swap_policy(sched_policy=Vandal())


class TestPolicyDiff:
    def test_distinct_bundles_lawful(self):
        for seed in range(4):
            report = run_differential(generate(seed),
                                      ("default", "burstable"),
                                      oracle="lawful")
            assert report.ok, report.summary()

    def test_self_pair_expect_equal(self):
        report = run_differential(generate(3), ("default", "default"),
                                  oracle="identical")
        assert report.ok
        assert report.fingerprint() is None

    def test_expect_equal_catches_subtle_divergence(self, scratch_policy):
        class Almost(DefaultSchedPolicy):
            name = "almost"

            def solve(self, members, capacity, params):
                allocs = super().solve(members, capacity, params)
                for g in allocs:
                    if g.rate > 0:
                        g.rate += 1e-9       # one ulp of unlawful drift
                return allocs

        scratch_policy("sched", "almost", Almost)
        report = run_differential(generate(2), ("default", "almost"),
                                  oracle="identical")
        assert not report.ok
        assert report.fingerprint() is not None

    def test_planted_divergent_policy_shrinks_to_fixture(self, scratch_policy):
        """The acceptance loop: catch, shrink, fixture, replay."""
        class Leaky(DefaultSchedPolicy):
            name = "leaky"

            def solve(self, members, capacity, params):
                allocs = super().solve(members, capacity, params)
                for g in allocs:
                    g.rate *= 1.25           # over-allocates the domain
                return allocs

        scratch_policy("sched", "leaky", Leaky)
        pair = ("default", "leaky")
        failing = None
        for seed in range(20):
            report = run_differential(generate(seed), pair,
                                      oracle="lawful")
            if not report.ok:
                failing = (generate(seed), report)
                break
        assert failing is not None, "planted bug never fired in 20 seeds"
        scenario, report = failing
        fingerprint = report.fingerprint()
        assert fingerprint is not None

        minimal = shrink(
            scenario,
            lambda s: run_differential(s, pair,
                                       oracle="lawful").fingerprint())
        assert len(minimal) <= len(scenario)

        # The fixture round-trips through JSON and still reproduces.
        fixture = minimal.to_dict()
        fixture["variants"] = list(pair)
        from repro.check import Scenario
        again = Scenario.from_dict(json.loads(json.dumps(fixture)))
        replay = run_differential(again, pair, oracle="lawful")
        assert not replay.ok
        assert replay.fingerprint() == fingerprint


class TestProfilerPolicyBuckets:
    def test_policy_time_attributed_and_detach_restores(self):
        from repro.obs.profile import EngineProfiler
        w = World(ncpus=2, memory=gib(1))
        _spin(w, "a", cpus=0.5, workers=2)
        b = w.containers.create(ContainerSpec("b"))
        c = w.containers.create(ContainerSpec("c"))
        prof = EngineProfiler().attach_world(w)
        w.mm.charge(b.cgroup, mib(400))
        w.mm.charge(c.cgroup, mib(250))     # pushes free below the watermark
        w.run(until=0.5)
        w.swap_policy(sched_policy="burstable")   # profiler-transparent
        w.run(until=1.0)
        prof.detach()
        rep = prof.report()
        assert rep["subsystems"]["sched_policy"]["calls"] > 0
        assert rep["subsystems"]["reclaim_policy"]["calls"] > 0
        # detach restored the raw indirections (no wrapper in __dict__)
        assert "_policy_solve" not in w.sched.__dict__
        assert "_policy_plan" not in w.mm.__dict__


class TestClusterWiring:
    def test_params_validate_policy_names(self):
        from repro.cluster import ClusterParams
        with pytest.raises(ClusterError, match="sched_policy"):
            ClusterParams(sched_policy="nope")
        with pytest.raises(ClusterError, match="reclaim_policy"):
            ClusterParams(reclaim_policy="nope")

    def test_hosts_inherit_cluster_policies(self):
        from repro.cluster import Cluster, ClusterParams
        cluster = Cluster(ClusterParams(n_hosts=2, host_ncpus=2,
                                        sched_policy="burstable",
                                        reclaim_policy="intent"))
        for host in cluster.hosts:
            assert host.world.sched.policy.name == "burstable"
            assert host.world.mm.policy.name == "intent"


class TestGateHelpers:
    @pytest.fixture(autouse=True)
    def _gate(self):
        sys.path.insert(0, "benchmarks")
        try:
            import gate
            self.gate = gate
            yield
        finally:
            sys.path.pop(0)

    def _pair(self, tmp_path, current: dict, baseline: dict):
        cur = tmp_path / "cur.json"
        base = tmp_path / "base.json"
        cur.write_text(json.dumps(current))
        base.write_text(json.dumps(baseline))
        return cur, base

    def test_load_pair_and_quick_mismatch(self, tmp_path):
        cur, base = self._pair(tmp_path,
                               {"quick": True, "scenarios": {}},
                               {"quick": False, "scenarios": {}})
        current, baseline = self.gate.load_pair(cur, base)
        msgs = self.gate.quick_mismatch(current, baseline, "bench_x.py")
        assert msgs and "quick" in msgs[0]
        assert not self.gate.quick_mismatch(current, current, "bench_x.py")

    def test_iter_scenarios_flags_missing(self):
        baseline = {"scenarios": {"a": {"x": 1}, "b": {"x": 2}}}
        current = {"scenarios": {"a": {"x": 1}}}
        failures: list[str] = []
        seen = [k for k, _, _ in
                self.gate.iter_scenarios(baseline, current, failures)]
        assert seen == ["a"]
        assert failures and "b" in failures[0]

    def test_trial_drift(self):
        base = {"trials": 5, "failures": 0}
        assert self.gate.trial_drift("k", base, dict(base)) == []
        msgs = self.gate.trial_drift("k", base, {"trials": 4, "failures": 0})
        assert msgs and "k" in msgs[0]

    def test_wall_ceilings(self):
        base = {"wall_s": 1.0}
        ok = self.gate.wall_ceilings("k", base, {"wall_s": 1.5}, ("wall_s",),
                                     max_slowdown=2.0, grace_s=0.25)
        assert ok == []
        bad = self.gate.wall_ceilings("k", base, {"wall_s": 3.0}, ("wall_s",),
                                      max_slowdown=2.0, grace_s=0.25)
        assert bad and "k" in bad[0]

    def test_report_exit_codes(self, capsys):
        assert self.gate.report([], "all good") == 0
        assert "all good" in capsys.readouterr().out
        assert self.gate.report(["broke"], "unused") == 1
        assert "broke" in capsys.readouterr().err

    def test_all_checkers_share_the_gate(self):
        import check_cluster_regression
        import check_engine_regression
        import check_obs_regression
        import check_policy_regression
        for mod in (check_engine_regression, check_cluster_regression,
                    check_obs_regression, check_policy_regression):
            assert mod.MAX_SLOWDOWN == self.gate.MAX_SLOWDOWN


class TestCheckCli:
    def _args(self, argv: list[str]) -> argparse.Namespace:
        from repro.check.cli import add_arguments
        parser = argparse.ArgumentParser()
        add_arguments(parser)
        return parser.parse_args(argv)

    def test_policy_sweep_green(self, capsys):
        from repro.check.cli import main
        rc = main(self._args(["--diff", "default,burstable",
                              "--seeds", "3", "--no-cache"]))
        out = capsys.readouterr().out
        assert rc == 0
        assert "check: seeds=3 failures=0" in out
        assert "scenarios lawful under default,burstable" in out

    def test_bad_pair_spec_exits(self, capsys):
        for spec in ("just-one", "default,bogus", "default,scan",
                     "jobs=0,jobs=1", "jobs=x,jobs=1"):
            with pytest.raises(SystemExit):
                self._args(["--diff", spec])
            assert "--diff" in capsys.readouterr().err

    def test_failing_bundle_sweep_writes_variants_fixture(
            self, scratch_policy, tmp_path, capsys):
        from repro.check.cli import main

        class Leaky(DefaultSchedPolicy):
            name = "leaky"

            def solve(self, members, capacity, params):
                allocs = super().solve(members, capacity, params)
                for g in allocs:
                    g.rate *= 1.25           # over-allocates the domain
                return allocs

        scratch_policy("sched", "leaky", Leaky)
        rc = main(self._args(["--diff", "default,leaky", "--seeds", "20",
                              "--no-cache", "--fixtures", str(tmp_path)]))
        out = capsys.readouterr().out
        assert rc == 1
        assert "--diff default,leaky" in out       # the re-run hint
        (path,) = tmp_path.glob("*.json")
        assert json.loads(path.read_text())["variants"] == ["default",
                                                           "leaky"]
        assert main(self._args(["--replay", str(path)])) == 1
        assert "(default,leaky): FAIL" in capsys.readouterr().out

    def test_policy_fixture_replay(self, tmp_path, capsys):
        from repro.check.cli import main
        scn = generate(1)
        fixture = scn.to_dict()
        fixture["variants"] = ["default", "intent"]
        path = tmp_path / "fix.json"
        path.write_text(json.dumps(fixture))
        rc = main(self._args(["--replay", str(path)]))
        assert rc == 0
        assert "(default,intent): ok" in capsys.readouterr().out


class TestExpPolicy:
    def _tiny(self):
        from repro.harness.experiments.exp_policy import PolicyParams
        return PolicyParams(ncpus=2, spinners=1, spinner_workers=2, hogs=2,
                            epochs=2, epoch=0.25)

    def test_trial_specs_cover_bundles_and_hotswap(self):
        from repro.harness.experiments.exp_policy import trial_specs
        specs = trial_specs(self._tiny())
        ids = [s.trial_id for s in specs]
        assert ids == ["bundle/default", "bundle/burstable", "bundle/intent",
                       "hotswap/default-burstable-default"]
        assert len(set(ids)) == len(ids)

    def test_run_reports_hotswap_and_bundles(self):
        from repro.harness.experiments.exp_policy import run
        text = run(self._tiny()).to_text()
        assert "hot-swap audit" in text
        assert "self-swap is snapshot-identical" in text
        assert "bundle/default" not in text          # table, not raw ids
        assert "burstable" in text

    def test_registered_and_quick_kwargs(self):
        from repro.harness.experiments import ALL_EXPERIMENTS
        from repro.harness.run_all import _QUICK_KWARGS
        assert "exp_policy" in ALL_EXPERIMENTS
        assert "exp_policy" in _QUICK_KWARGS
