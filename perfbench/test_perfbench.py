"""Tests of the benchmark itself: span arithmetic, detach, fingerprints.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import multiprocessing as mp
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from scenarios import WORKLOADS, ClusterRun, ClusterSharded, Colocate  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

from repro.world import World  # noqa: E402

#: A seed absent from baseline.json, so it played no part in setting
#: the committed fingerprints or the bounds.
FRESH_SEED = 1009


def _spans(rows) -> Tracer:
    """A tracer holding hand-made spans: (name, start, end, parent, run)."""
    tracer = Tracer()
    for name, start, end, parent, run_id in rows:
        tracer.name.append(tracer.name_id(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.run.append(run_id)
    return tracer


class TestSelfTime:
    def test_nested(self):
        rows = self_times(_spans([("a", 0.0, 10.0, -1, 1),
                                  ("b", 2.0, 5.0, 0, 1)]))
        assert rows["a"] == {"calls": 1, "self_s": 7.0, "inclusive_s": 10.0}
        assert rows["b"] == {"calls": 1, "self_s": 3.0, "inclusive_s": 3.0}

    def test_siblings(self):
        rows = self_times(_spans([("a", 0.0, 10.0, -1, 1),
                                  ("b", 1.0, 3.0, 0, 1),
                                  ("c", 4.0, 8.0, 0, 1),
                                  ("b", 8.5, 9.0, 0, 1)]))
        assert rows["a"]["self_s"] == 10.0 - 2.0 - 4.0 - 0.5
        assert rows["b"] == {"calls": 2, "self_s": 2.5, "inclusive_s": 2.5}
        assert rows["c"]["self_s"] == 4.0

    def test_reentrant(self):
        # a calls itself, and the inner a calls b.
        rows = self_times(_spans([("a", 0.0, 10.0, -1, 1),
                                  ("a", 2.0, 6.0, 0, 1),
                                  ("b", 3.0, 4.0, 1, 1)]))
        assert rows["a"]["calls"] == 2
        assert rows["a"]["self_s"] == (10.0 - 4.0) + (4.0 - 1.0)
        # Outermost spans only: the inner call is not counted twice.
        assert rows["a"]["inclusive_s"] == 10.0
        assert rows["b"]["self_s"] == 1.0
        total_self = sum(r["self_s"] for r in rows.values())
        assert total_self == 10.0

    def test_run_filter(self):
        tracer = _spans([("a", 0.0, 1.0, -1, 1), ("a", 2.0, 5.0, -1, 2)])
        assert self_times(tracer, 2)["a"]["inclusive_s"] == 3.0
        assert self_times(tracer, 1)["a"]["calls"] == 1

    def test_live_spans_nest_by_call(self):
        class Thing:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                return 1

        tracer = Tracer()
        tracer.wrap(Thing, "outer", "outer")
        tracer.wrap(Thing, "inner", "inner")
        with tracer.span("root"):
            assert Thing().outer() == 2
        tracer.detach()
        names = [tracer.names[i] for i in tracer.name]
        assert names == ["root", "outer", "inner"]
        assert list(tracer.parent) == [-1, 0, 1]
        assert all(s <= e for s, e in zip(tracer.start, tracer.end))


def _child_sees_original(conn) -> None:
    conn.send(World.__dict__["step"] is ORIGINAL_STEP)
    conn.close()


ORIGINAL_STEP = World.__dict__["step"]


class TestDetach:
    def test_detach_restores_every_attribute(self):
        before = {(owner, attr): owner.__dict__.get(attr)
                  for owner, attr, _ in layers.SPANS}
        tracer = Tracer()
        layers.attach(tracer)
        assert World.__dict__["step"] is not ORIGINAL_STEP
        tracer.detach()
        after = {(owner, attr): owner.__dict__.get(attr)
                 for owner, attr, _ in layers.SPANS}
        assert after == before
        tracer.detach()  # idempotent

    def test_inherited_attribute_is_removed_again(self):
        class Base:
            def method(self):
                return "base"

        class Child(Base):
            pass

        tracer = Tracer()
        tracer.wrap(Child, "method", "m")
        assert "method" in Child.__dict__
        tracer.detach()
        assert "method" not in Child.__dict__
        assert Child().method() == "base"

    def test_bound_wrapper_held_after_detach_records_nothing(self):
        class Thing:
            def hit(self):
                return 7

        tracer = Tracer()
        tracer.wrap(Thing, "hit", "hit")
        held = Thing().hit  # e.g. a callback subscribed while tracing
        tracer.detach()
        assert held() == 7
        assert len(tracer) == 0

    def test_forked_child_runs_unwrapped(self):
        tracer = Tracer()
        layers.attach(tracer)
        try:
            parent, child = mp.get_context("fork").Pipe()
            proc = mp.get_context("fork").Process(
                target=_child_sees_original, args=(child,))
            proc.start()
            assert parent.poll(30)
            assert parent.recv() is True
            proc.join(timeout=30)
            assert not proc.is_alive()
        finally:
            tracer.detach()
        assert World.__dict__["step"] is ORIGINAL_STEP

    def test_traced_fingerprint_equals_untraced(self):
        runner = run.Runner("colocate", FRESH_SEED, {})
        untraced = runner.iteration()
        tracer = Tracer()
        tracer.run_id = 1
        traced = runner.iteration(tracer)
        assert untraced is not None and traced is not None
        assert runner.failures == []
        assert (untraced[1].fingerprint() == traced[1].fingerprint()
                == runner.reference)
        assert World.__dict__["step"] is ORIGINAL_STEP
        metrics = layers.layer_metrics(tracer, 1, migrations=0)
        assert metrics["core.view_update.calls"] > 0
        assert metrics["trace.unattributed_s"] <= 0.05 * metrics[
            "trace.wall_s"]


class TestFreshSeed:
    def test_not_in_baseline(self):
        baseline = json.loads(run.BASELINE.read_text())["workloads"]
        assert all(str(FRESH_SEED) not in seeds
                   for seeds in baseline.values())

    def _fingerprint(self, cls, seed):
        inst = cls(seed)
        try:
            inst.run()
            inst.check()
            return inst.fingerprint()
        finally:
            inst.close()

    def test_fingerprints_repeat(self):
        for cls in (Colocate, WORKLOADS["serve"]):
            assert (self._fingerprint(cls, FRESH_SEED)
                    == self._fingerprint(cls, FRESH_SEED))

    def test_cluster_repeats_and_sharded_matches(self):
        first = self._fingerprint(ClusterRun, FRESH_SEED)
        assert first == self._fingerprint(ClusterRun, FRESH_SEED)
        assert first == self._fingerprint(ClusterSharded, FRESH_SEED)

    def test_seed_changes_inputs(self):
        assert (self._fingerprint(Colocate, FRESH_SEED)
                != self._fingerprint(Colocate, FRESH_SEED + 1))


def test_parse_seeds():
    assert run.parse_seeds("0-3,7") == [0, 1, 2, 3, 7]


def test_tail_percentile_needs_ten_beyond():
    assert run.tail_percentile([1.0] * 19) is None
    assert run.tail_percentile([float(i) for i in range(20)]) == (50, 9.0)
    assert run.tail_percentile([float(i) for i in range(40)]) == (75, 29.0)
    assert run.tail_percentile([float(i) for i in range(100)]) == (90, 89.0)


def test_bracket_scales_by_mean_reading(monkeypatch):
    readings = iter([speed.NOMINAL_S * 2, speed.NOMINAL_S * 4])
    monkeypatch.setattr(speed, "reading", lambda: next(readings))
    with speed.Bracket() as bracket:
        pass
    # The machine ran the kernel 3x slower than nominal on average.
    assert bracket.reference_s == pytest.approx(speed.NOMINAL_S * 3)
    assert bracket.scale(6.0) == pytest.approx(2.0)


def test_kernel_is_fixed_work():
    assert speed.kernel() == speed.kernel()
