"""PSI accumulator semantics: zero-dt re-entry, EMA folding, lazy decay.

These pin the properties the invariant checker leans on: stall totals
are exact integrals (re-entrant same-tick calls must not double-count
or double-decay), the windowed averages fold over split intervals, and
a clock-bound (lazy) accumulator reads identically to an eager one.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.pressure import (PSI_WINDOWS, CgroupPressure, PressureStall,
                                advance_stalls)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now


class TestZeroDtAndBursts:
    def test_zero_dt_is_noop(self):
        for bound in (False, True):
            p = PressureStall()
            clock = FakeClock()
            if bound:
                p.bind_clock(clock)
            p.advance(1.0, 0.5, 0.25)
            before = (p.some_total, p.full_total,
                      [p.avg("some", w) for w in PSI_WINDOWS])
            p.advance(0.0, 1.0, 1.0)
            p.advance(-1.0, 1.0, 1.0)
            after = (p.some_total, p.full_total,
                     [p.avg("some", w) for w in PSI_WINDOWS])
            assert before == after

    def test_same_tick_burst_totals_are_additive(self):
        """Many advances while the clock stands still: totals must sum
        exactly, and the stretch already accrued ahead of the clock must
        not be decayed again by the next call's lazy sync."""
        p = PressureStall()
        clock = FakeClock(5.0)
        p.bind_clock(clock)
        for _ in range(10):
            p.advance(0.1, 1.0, 0.5)       # clock never moves: a burst
        assert p.some_total == pytest.approx(1.0, abs=1e-12)
        assert p.full_total == pytest.approx(0.5, abs=1e-12)

    def test_burst_matches_eager_unbound_sequence(self):
        """A same-tick burst on a bound accumulator reads exactly like
        the same calls on an eager (unbound) one."""
        bound, eager = PressureStall(), PressureStall()
        clock = FakeClock()
        bound.bind_clock(clock)
        for frac in (1.0, 0.0, 0.25, 0.75):
            bound.advance(0.05, frac, frac / 2)
            eager.advance(0.05, frac, frac / 2)
        assert bound.some_total == eager.some_total
        assert bound.full_total == eager.full_total
        for w in PSI_WINDOWS:
            assert bound.avg("some", w) == pytest.approx(
                eager.avg("some", w), rel=1e-12)
            assert bound.avg("full", w) == pytest.approx(
                eager.avg("full", w), rel=1e-12)


class TestEmaFolding:
    def test_two_chunks_equal_one_chunk(self):
        one, two = PressureStall(), PressureStall()
        one.advance(0.7, 0.4, 0.1)
        two.advance(0.3, 0.4, 0.1)
        two.advance(0.4, 0.4, 0.1)
        assert one.some_total == pytest.approx(two.some_total, rel=1e-12)
        for w in PSI_WINDOWS:
            assert one.avg("some", w) == pytest.approx(
                two.avg("some", w), rel=1e-9)
            assert one.avg("full", w) == pytest.approx(
                two.avg("full", w), rel=1e-9)

    def test_full_clamped_to_some(self):
        p = PressureStall()
        p.advance(1.0, 0.2, 0.9)
        assert p.full_total == pytest.approx(0.2)
        assert p.some_total >= p.full_total

    def test_fraction_clamped_to_unit_interval(self):
        p = PressureStall()
        p.advance(1.0, 7.0, -3.0)
        assert p.some_total == pytest.approx(1.0)
        assert p.full_total == 0.0
        for w in PSI_WINDOWS:
            assert 0.0 <= p.avg("some", w) <= 1.0


class TestLazyVsEager:
    def test_idle_gap_decay_matches_eager(self):
        """Bound accumulator left untouched over a gap must read what an
        eager accumulator fed an explicit zero-stall interval reads."""
        clock = FakeClock()
        lazy, eager = PressureStall(), PressureStall()
        lazy.bind_clock(clock)
        lazy.advance(1.0, 0.8, 0.3)
        eager.advance(1.0, 0.8, 0.3)
        clock.now = 1.0 + 9.0                 # 9s idle gap
        eager.advance(9.0, 0.0, 0.0)
        for w in PSI_WINDOWS:
            assert lazy.avg("some", w) == pytest.approx(
                eager.avg("some", w), rel=1e-9)
            assert lazy.avg("full", w) == pytest.approx(
                eager.avg("full", w), rel=1e-9)
        assert lazy.some_total == eager.some_total

    def test_maybe_advance_skips_only_pure_decay(self):
        clock = FakeClock()
        a, b = PressureStall(), PressureStall()
        a.bind_clock(clock)
        b.bind_clock(clock)
        a.advance(0.5, 0.6, 0.0)
        b.advance(0.5, 0.6, 0.0)
        clock.now = 0.5
        a.maybe_advance(2.0, 0.0, 0.0)        # skipped: lazy decay covers it
        b.advance(2.0, 0.0, 0.0)              # taken eagerly
        clock.now = 2.5
        for w in PSI_WINDOWS:
            assert a.avg("some", w) == pytest.approx(
                b.avg("some", w), rel=1e-9)
        assert a.some_total == b.some_total

    def test_unbound_maybe_advance_never_skips(self):
        p = PressureStall()
        p.advance(1.0, 1.0, 0.0)
        before = p.avg("some", 10.0)
        p.maybe_advance(5.0, 0.0, 0.0)
        assert p.avg("some", 10.0) < before   # decay was applied eagerly

    def test_avg_read_is_stable(self):
        """Reading avg() twice at the same instant returns the same value
        (sync is idempotent)."""
        clock = FakeClock()
        p = PressureStall()
        p.bind_clock(clock)
        p.advance(0.2, 1.0, 1.0)
        clock.now = 3.0
        first = p.avg("some", 10.0)
        assert p.avg("some", 10.0) == first

    def test_decay_follows_exact_exponential(self):
        clock = FakeClock()
        p = PressureStall()
        p.bind_clock(clock)
        p.advance(1.0, 1.0, 0.0)
        at_one = p.avg("some", 10.0)
        clock.now = 1.0 + 5.0
        assert p.avg("some", 10.0) == pytest.approx(
            at_one * math.exp(-5.0 / 10.0), rel=1e-12)


class TestCgroupPressure:
    def test_as_dict_shape(self):
        cp = CgroupPressure()
        cp.cpu.advance(1.0, 0.5, 0.25)
        d = cp.as_dict()
        assert set(d) == {"cpu", "memory"}
        assert d["cpu"]["some_total"] == pytest.approx(0.5)
        assert d["cpu"]["full_total"] == pytest.approx(0.25)
        assert d["memory"]["some_total"] == 0.0
        for window in PSI_WINDOWS:
            assert f"some_avg{int(window)}" in d["cpu"]

    def test_bind_clock_binds_both(self):
        cp = CgroupPressure()
        clock = FakeClock(2.0)
        cp.bind_clock(clock)
        assert cp.cpu._clock is clock and cp.memory._clock is clock
        assert cp.cpu._synced == 2.0


# A stall fraction: lawful values, exact zeros (the skip), values the
# clamps must cut (negative, above one, infinite, NaN).
_frac = st.one_of(
    st.just(0.0), st.just(1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-2.0, max_value=3.0),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan]))

# One step of the program: accrue ``dt`` into three accumulators (two
# clock-bound, one unbound) and move the clock by ``dt`` plus an idle
# ``gap`` (0 = back-to-back steps, as the scheduler issues them).
_step = st.tuples(
    st.one_of(st.floats(min_value=1e-9, max_value=50.0),
              st.sampled_from([0.0, -1.0, 1e-300, 0.1])),
    st.tuples(_frac, _frac), st.tuples(_frac, _frac), st.tuples(_frac, _frac),
    st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=2.0),
              st.floats(min_value=0.0, max_value=400.0)))


def _state(p: PressureStall):
    return (p.some_total, p.full_total, list(p._some_avg),
            list(p._full_avg), p._synced)


class TestBatchAccrual:
    """``advance_stalls`` is ``maybe_advance`` per entry, bit for bit."""

    @given(st.floats(min_value=0.0, max_value=100.0),
           st.lists(_step, max_size=40))
    def test_batch_matches_per_accumulator_advance(self, start, steps):
        clock = FakeClock(start)
        ref = [PressureStall(), PressureStall(), PressureStall()]
        got = [PressureStall(), PressureStall(), PressureStall()]
        for p in ref[:2] + got[:2]:
            p.bind_clock(clock)
        for dt, *fracs, gap in steps:
            for p, (some, full) in zip(ref, fracs):
                p.maybe_advance(dt, some, full)
            advance_stalls([(p, some, full)
                            for p, (some, full) in zip(got, fracs)], dt)
            for a, b in zip(ref, got):
                assert _state(a) == _state(b)
            if dt > 0.0:
                clock.now = clock.now + dt
            clock.now = clock.now + gap
        for a, b in zip(ref, got):
            for kind in ("some", "full"):
                for w in PSI_WINDOWS:
                    assert a.avg(kind, w) == b.avg(kind, w)
            assert a.format() == b.format()

    def test_empty_batch_and_nonpositive_dt_are_noops(self):
        p = PressureStall()
        advance_stalls([], 1.0)
        advance_stalls([(p, 1.0, 1.0)], 0.0)
        advance_stalls([(p, 1.0, 1.0)], -1.0)
        assert _state(p) == _state(PressureStall())
