"""Tests for repro.check: generator, runner, differ, variants, shrinker, CLI.

The meta-test strategy: the fuzzer must (a) be deterministic, (b) pass
on the healthy simulator, and (c) actually *catch and shrink* planted
bugs — a checker that never fires is indistinguishable from one that
cannot fire, so we re-introduce two representative bug classes
(engine-conditional drift for the differ, ledger corruption for the
invariant suite) and assert the harness pins them to small repros.
"""

import argparse
import json

import pytest

from repro.check import (Scenario, default_suite, diff_snapshots, generate,
                         run_differential, run_scenario, shrink)
from repro.check import shard_diff
from repro.check.differ import variant_kind
from repro.check.generator import generate as generate2
from repro.kernel.mm.memcg import MemoryManager
from repro.kernel.sched.fair import FairScheduler
from repro.units import gib, mib

#: Tier-1 sweep width; CI's check-fuzz job runs the full 200.
SWEEP_SEEDS = 30


class TestGenerator:
    def test_deterministic(self):
        for seed in (0, 7, 12345):
            assert generate(seed).to_dict() == generate2(seed).to_dict()

    def test_seeds_differ(self):
        assert generate(1).to_dict() != generate(2).to_dict()

    def test_generated_scenarios_validate(self):
        for seed in range(20):
            scn = generate(seed)
            scn.validate()
            assert len(scn.ops) > 0
            assert all(0 <= op["t"] <= scn.horizon for op in scn.ops)

    def test_covers_op_space(self):
        """Across a modest seed range every op kind appears."""
        kinds = set()
        for seed in range(60):
            kinds.update(op["op"] for op in generate(seed).ops)
        assert {"create", "destroy", "charge", "uncharge", "set_shares",
                "set_quota", "set_cpuset", "set_limit", "loop",
                "block", "wake", "spawn"} <= kinds


class TestScenarioSerialization:
    def test_json_round_trip(self):
        scn = generate(42)
        again = Scenario.from_json(scn.to_json())
        assert again.to_dict() == scn.to_dict()

    def test_rejects_future_schema(self):
        data = generate(0).to_dict()
        data["schema"] = 999
        with pytest.raises(ValueError, match="newer"):
            Scenario.from_dict(data)

    def test_rejects_unknown_op(self):
        scn = generate(0)
        scn.ops.append({"t": 0.1, "op": "frobnicate", "name": "c0"})
        with pytest.raises(ValueError, match="unknown kind"):
            scn.validate()

    def test_rejects_op_past_horizon(self):
        scn = Scenario(ops=[{"t": 99.0, "op": "destroy", "name": "c0"}])
        with pytest.raises(ValueError, match="outside"):
            scn.validate()


class TestRunner:
    def test_run_is_deterministic(self):
        scn = generate(3)
        a = run_scenario(scn, "incremental")
        b = run_scenario(scn, "incremental")
        assert a.log == b.log
        assert a.snapshots == b.snapshots

    def test_ops_on_missing_containers_are_skips(self):
        scn = Scenario(ncpus=2, memory=gib(1), horizon=0.5, ops=[
            {"t": 0.1, "op": "charge", "name": "ghost", "bytes": mib(1)},
            {"t": 0.2, "op": "destroy", "name": "ghost"},
        ])
        res = run_scenario(scn)
        assert res.ok
        assert all(":skip:missing" in line for line in res.log)

    def test_oom_destroys_the_victim(self):
        scn = Scenario(ncpus=2, memory=gib(1), horizon=1.0, swap_factor=0.0,
                       ops=[
            {"t": 0.0, "op": "create", "name": "c0", "workers": 1,
             "memory_limit": mib(128)},
            {"t": 0.2, "op": "charge", "name": "c0", "bytes": mib(400)},
            {"t": 0.4, "op": "charge", "name": "c0", "bytes": mib(1)},
        ])
        res = run_scenario(scn)
        assert res.ok, res.violations
        assert any(":oom:" in line for line in res.log)
        assert any(":skip:missing" in line for line in res.log)  # gone after kill

    def test_invariants_checked_at_every_boundary(self):
        scn = generate(5)
        res = run_scenario(scn)
        assert len(res.snapshots) == len(scn.ops) + 2  # initial + per-op + final


class TestDiffer:
    def test_diff_snapshots_finds_nested_mismatch(self):
        a = {"x": [1, {"y": 2.0}], "z": "s"}
        b = {"x": [1, {"y": 2.5}], "z": "s"}
        (only,) = diff_snapshots(a, b)
        assert only.startswith("x[1].y ")

    def test_diff_snapshots_equal(self):
        snap = run_scenario(generate(1)).snapshots[-1]
        assert diff_snapshots(snap, snap) == []

    def test_sweep_passes_on_both_engines(self):
        for seed in range(SWEEP_SEEDS):
            report = run_differential(generate(seed))
            assert report.ok, (
                f"seed {seed}:\n{report.summary()}")

    def test_differ_catches_engine_conditional_drift(self, monkeypatch):
        """Re-introduce the bug class the differ exists for: an
        incremental-only accounting drift invisible to the invariants."""
        orig = FairScheduler.advance

        def drifting(self, dt):
            orig(self, dt)
            if self._incremental:
                for cg in self.cgroups.walk():
                    cg.throttled_time += 1e-9 * dt
        monkeypatch.setattr(FairScheduler, "advance", drifting)
        report = run_differential(generate(0))
        assert report.divergences
        assert report.fingerprint() == "divergence:throttled_time"


class TestVariants:
    def test_kinds(self):
        assert variant_kind(("incremental", "scan")) == "engine"
        assert variant_kind(("default", "burstable", "intent")) == "bundle"
        assert variant_kind(("jobs=1", "jobs=2")) == "jobs"

    @pytest.mark.parametrize("variants", [
        ("scan",), ("default", "bogus"), ("incremental", "default"),
        ("jobs=1", "scan"), ("jobs=0", "jobs=1"), ("jobs=x", "jobs=1"),
        ("incremental", "scan", "vector"),
    ])
    def test_invalid_variants_rejected(self, variants):
        with pytest.raises(ValueError):
            variant_kind(variants)
        with pytest.raises(ValueError):
            run_differential(generate(0), variants)

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ValueError, match="oracle"):
            run_differential(generate(0), oracle="close-enough")

    def test_three_engines_name_the_diverging_variant(self, monkeypatch):
        # Three variants, the middle one skewed: every divergence must
        # name it, not merely the last variant compared.
        orig = shard_diff.run_layout

        def skewed(scenario, jobs):
            res = orig(scenario, jobs)
            if jobs == 2:
                res.snapshots[-1]["placed"] += 1
            return res
        monkeypatch.setattr(shard_diff, "run_layout", skewed)
        report = run_differential(shard_diff.scenario(0),
                                  ("jobs=1", "jobs=2", "jobs=3"))
        assert list(report.results) == ["jobs=1", "jobs=2", "jobs=3"]
        assert report.divergences
        assert all(d.startswith("jobs=2: ") for d in report.divergences)
        assert report.fingerprint() == "divergence:placed"

    def test_lawful_oracle_ignores_engine_drift(self, monkeypatch):
        orig = FairScheduler.advance

        def drifting(self, dt):
            orig(self, dt)
            if self._incremental:
                for cg in self.cgroups.walk():
                    cg.throttled_time += 1e-9 * dt
        monkeypatch.setattr(FairScheduler, "advance", drifting)
        # The lawful oracle ignores the drift: it breaks no invariant.
        assert run_differential(generate(0), ("scan", "incremental"),
                                oracle="lawful").ok

    def test_shard_layouts_identical(self):
        for seed in range(3):
            report = run_differential(shard_diff.scenario(seed),
                                      ("jobs=1", "jobs=2"))
            assert report.ok, f"seed {seed}:\n{report.summary()}"
            ref, other = report.results.values()
            assert ref.snapshots and ref.log == other.log

    def test_shard_snapshot_divergence_caught(self, monkeypatch):
        orig = shard_diff.run_layout

        def skewed(scenario, jobs):
            res = orig(scenario, jobs)
            if jobs == 2:
                res.snapshots[-1]["placed"] += 1
            return res
        monkeypatch.setattr(shard_diff, "run_layout", skewed)
        report = run_differential(shard_diff.scenario(0),
                                  ("jobs=1", "jobs=2"))
        (only,) = report.divergences
        assert only.startswith("jobs=2: snapshot[")
        assert report.fingerprint() == "divergence:placed"


class TestCheckCliDiff:
    def _main(self, argv: list[str]) -> int:
        from repro.check.cli import add_arguments, main
        parser = argparse.ArgumentParser()
        add_arguments(parser)
        return main(parser.parse_args(argv))

    def test_shard_diff_sweep(self, capsys):
        assert self._main(["--diff", "jobs=1,jobs=2", "--seeds", "2",
                           "--jobs", "2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "check: seeds=2 failures=0 cache_hits=0" in out
        assert "scenarios identical under jobs=1,jobs=2" in out

    def test_failing_shard_seed_prints_rerun_hint(self, monkeypatch, capsys):
        orig = shard_diff.run_layout

        def skewed(scenario, jobs):
            res = orig(scenario, jobs)
            if jobs == 2:
                res.log[0] += "x"
            return res
        monkeypatch.setattr(shard_diff, "run_layout", skewed)
        assert self._main(["--diff", "jobs=1,jobs=2", "--seed", "0",
                           "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "check: seeds=1 failures=1" in out
        assert ("re-run with: python -m repro check --seed 0 "
                "--diff jobs=1,jobs=2") in out

    def test_variants_tagged_fixture_replays(self, tmp_path, capsys):
        fixture = generate(4).to_dict()
        fixture["variants"] = ["scan", "incremental"]
        path = tmp_path / "fix.json"
        path.write_text(json.dumps(fixture))
        assert self._main(["--replay", str(path)]) == 0
        assert "(scan,incremental): ok" in capsys.readouterr().out

    def test_fixture_with_bad_variants_exits(self, tmp_path):
        fixture = generate(4).to_dict()
        for variants in (["jobs=1", "jobs=2"], ["incremental", "bogus"]):
            fixture["variants"] = variants
            path = tmp_path / "fix.json"
            path.write_text(json.dumps(fixture))
            with pytest.raises(SystemExit, match="variants"):
                self._main(["--replay", str(path)])


class TestShrinker:
    def _planted_ledger_bug(self, monkeypatch):
        """uncharge forgets the ledger — the stale-residue bug class."""
        orig = MemoryManager.uncharge

        def buggy(self, cg, nbytes):
            orig(self, cg, nbytes)
            cg.memory.uncharge_total -= nbytes // 2   # corrupt the ledger
        monkeypatch.setattr(MemoryManager, "uncharge", buggy)

    def test_planted_bug_is_caught_and_shrinks_small(self, monkeypatch):
        self._planted_ledger_bug(monkeypatch)
        scn = Scenario(ncpus=2, memory=gib(1), horizon=1.0, seed=77, ops=[
            {"t": 0.0, "op": "create", "name": "c0", "workers": 2},
            {"t": 0.0, "op": "create", "name": "c1", "workers": 1},
            {"t": 0.05, "op": "set_shares", "name": "c1", "shares": 256},
            {"t": 0.1, "op": "charge", "name": "c0", "bytes": mib(64)},
            {"t": 0.15, "op": "spawn", "name": "c1", "work": 0.2},
            {"t": 0.2, "op": "loop", "name": "c1", "workers": 1,
             "segment": 0.02, "until": 0.6},
            {"t": 0.3, "op": "uncharge", "name": "c0", "bytes": mib(32)},
            {"t": 0.4, "op": "set_quota", "name": "c0", "cpus": 1.0},
            {"t": 0.5, "op": "charge", "name": "c1", "bytes": mib(16)},
            {"t": 0.7, "op": "set_cpuset", "name": "c1", "cpuset": "0"},
        ])
        report = run_differential(scn)
        assert not report.ok
        fingerprint = report.fingerprint()
        assert fingerprint.startswith("invariant:")
        assert "memory_ledger" in fingerprint

        minimal = shrink(scn, lambda s: run_differential(s).fingerprint())
        assert len(minimal) <= 10          # the acceptance bar
        assert len(minimal) <= 3           # create + charge + uncharge
        kinds = sorted(op["op"] for op in minimal.ops)
        assert "uncharge" in kinds
        # The minimized scenario still reproduces the same failure.
        assert run_differential(minimal).fingerprint() == fingerprint

    def test_shrink_rejects_passing_scenario(self):
        with pytest.raises(ValueError, match="passing"):
            shrink(generate(0), lambda s: run_differential(s).fingerprint())

    def test_shrunk_fixture_round_trips(self, monkeypatch):
        self._planted_ledger_bug(monkeypatch)
        scn = Scenario(ncpus=2, memory=gib(1), horizon=0.5, ops=[
            {"t": 0.0, "op": "create", "name": "c0", "workers": 1},
            {"t": 0.1, "op": "charge", "name": "c0", "bytes": mib(32)},
            {"t": 0.2, "op": "uncharge", "name": "c0", "bytes": mib(16)},
        ])
        minimal = shrink(scn, lambda s: run_differential(s).fingerprint())
        blob = json.loads(minimal.to_json())
        again = Scenario.from_dict(blob)
        assert run_differential(again).fingerprint() is not None


class TestInvariantsFire:
    """Each invariant must detect its bug class on a corrupted world."""

    def _world_after(self, seed=1):
        scn = generate(seed)
        from repro.kernel.mm.memcg import MmParams
        from repro.world import World
        world = World(ncpus=scn.ncpus, memory=scn.memory,
                      mm_params=MmParams(swap_factor=scn.swap_factor))
        return world

    def _check(self, world):
        from repro.check.invariants import check_all
        snap = world.invariant_snapshot()
        return check_all(default_suite(), world, snap, None)

    def test_healthy_world_is_clean(self):
        world = self._world_after()
        assert self._check(world) == []

    def test_conservation_violation_detected(self):
        world = self._world_after()
        world.sched.total_idle_time += 0.5
        world.sched._time += 0.0          # keep elapsed consistent
        assert any("cpu_conservation" in v for v in self._check(world))

    def test_ledger_violation_detected(self):
        world = self._world_after()
        cg = world.cgroups.root.create_child("x")
        cg.memory.charge_total = mib(10)  # bytes from nowhere
        violations = self._check(world)
        assert any("memory_ledger" in v for v in violations)

    def test_psi_violation_detected(self):
        world = self._world_after()
        world.cgroups.root.pressure.cpu.full_total = 5.0  # full > some
        assert any("psi_sanity" in v for v in self._check(world))

    def test_event_heap_violation_detected(self):
        world = self._world_after()
        handle = world.events.call_after(1.0, lambda: None, name="x")
        handle.cancelled = True           # cancel without bookkeeping
        assert any("event_heap" in v for v in self._check(world))
