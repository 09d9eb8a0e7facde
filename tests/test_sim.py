"""Tests for the discrete-event substrate (clock, events, RNG)."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim import EventLoop, RngFactory, SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            SimClock(-1.0)

    def test_advance(self):
        c = SimClock()
        c.advance_to(3.5)
        assert c.now == 3.5

    def test_advance_backwards_rejected(self):
        c = SimClock(2.0)
        with pytest.raises(SimulationError):
            c.advance_to(1.0)

    def test_advance_to_same_time_ok(self):
        c = SimClock(2.0)
        c.advance_to(2.0)
        assert c.now == 2.0


class TestEventLoop:
    def setup_method(self):
        self.clock = SimClock()
        self.loop = EventLoop(self.clock)
        self.fired: list = []

    def test_call_at_fires_in_order(self):
        self.loop.call_at(2.0, lambda: self.fired.append("b"))
        self.loop.call_at(1.0, lambda: self.fired.append("a"))
        self.loop.run_until(3.0)
        assert self.fired == ["a", "b"]
        assert self.clock.now == 3.0

    def test_ties_fire_in_insertion_order(self):
        for tag in "abc":
            self.loop.call_at(1.0, lambda t=tag: self.fired.append(t))
        self.loop.run_until(1.0)
        assert self.fired == ["a", "b", "c"]

    def test_call_after(self):
        self.clock.advance_to(1.0)
        self.loop.call_after(0.5, lambda: self.fired.append(self.clock.now))
        self.loop.run_until(2.0)
        assert self.fired == [1.5]

    def test_scheduling_in_the_past_rejected(self):
        self.clock.advance_to(1.0)
        with pytest.raises(SimulationError):
            self.loop.call_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            self.loop.call_after(-0.1, lambda: None)

    def test_cancel_one_shot(self):
        h = self.loop.call_at(1.0, lambda: self.fired.append("x"))
        h.cancel()
        self.loop.run_until(2.0)
        assert self.fired == []
        assert not h.active

    def test_periodic_timer(self):
        self.loop.call_every(1.0, lambda: self.fired.append(self.clock.now))
        self.loop.run_until(3.5)
        assert self.fired == [1.0, 2.0, 3.0]

    def test_periodic_first_after(self):
        self.loop.call_every(1.0, lambda: self.fired.append(self.clock.now),
                             first_after=0.25)
        self.loop.run_until(2.5)
        assert self.fired == [0.25, 1.25, 2.25]

    def test_periodic_timer_cancel_stops_firing(self):
        h = self.loop.call_every(1.0, lambda: self.fired.append(self.clock.now))
        self.loop.run_until(1.5)
        h.cancel()
        self.loop.run_until(5.0)
        assert self.fired == [1.0]

    def test_timer_period_mutation(self):
        """The sys_namespace timer adjusts its own period between firings."""
        h = self.loop.call_every(1.0, lambda: self.fired.append(self.clock.now))

        def widen():
            h.period = 2.0
        self.loop.call_at(1.5, widen)
        self.loop.run_until(6.0)
        # Fires at 1.0 (then re-arms +1.0 -> 2.0), at 2.0 period becomes ...
        assert self.fired[0] == 1.0
        assert self.fired[1] == 2.0
        # After the mutation the timer re-arms at +2.0 intervals.
        assert self.fired[2] == pytest.approx(4.0)

    def test_timer_rearms_after_its_callback_compacts_the_heap(self):
        """A callback's cancellations can rebuild the heap as a new list;
        the firing timer must re-arm into that list, not the old one."""
        doomed = [self.loop.call_at(5.0 + i, lambda: None) for i in range(80)]

        def cancel_all():
            self.fired.append(self.clock.now)
            for h in doomed:
                h.cancel()
        self.loop.call_every(1.0, cancel_all)
        self.loop.run_until(3.5)
        assert self.fired == [1.0, 2.0, 3.0]
        report = self.loop.integrity()
        assert report["live"] == len(self.loop) == 1
        assert report["cancelled"] == report["tracked_cancelled"]

    def test_zero_period_rejected(self):
        with pytest.raises(SimulationError):
            self.loop.call_every(0.0, lambda: None)

    def test_next_event_time_skips_cancelled(self):
        h = self.loop.call_at(1.0, lambda: None)
        self.loop.call_at(2.0, lambda: None)
        h.cancel()
        assert self.loop.next_event_time() == 2.0

    def test_len_counts_active_events(self):
        h = self.loop.call_at(1.0, lambda: None)
        self.loop.call_at(2.0, lambda: None)
        assert len(self.loop) == 2
        h.cancel()
        assert len(self.loop) == 1

    def test_step_returns_false_when_empty(self):
        assert self.loop.step() is False

    def test_callback_scheduling_more_events(self):
        def chain():
            if len(self.fired) < 3:
                self.fired.append(self.clock.now)
                self.loop.call_after(1.0, chain)
        self.loop.call_at(1.0, chain)
        self.loop.run_until(10.0)
        assert self.fired == [1.0, 2.0, 3.0]


class TestNanTimesRejected:
    """NaN compares false against every bound, so an unchecked NaN time
    slips past the "not in the past" and "positive period" checks: a NaN
    one-shot then sorts before earlier events and drags ``clock.now``
    through NaN.  Every scheduling entry point must refuse it and leave
    the queue exactly as it was."""

    BAD = float("nan")

    def setup_method(self):
        self.clock = SimClock()
        self.loop = EventLoop(self.clock)
        self.fired: list = []
        # One recycled transient in the free list (a NaN call_at must not
        # consume it), one pending one-shot and one periodic timer.
        self.loop.call_at(0.1, lambda: None, transient=True)
        self.loop.run_until(0.2)
        self.loop.call_at(1.0, lambda: self.fired.append(self.clock.now))
        self.loop.call_every(0.5, lambda: self.fired.append(self.clock.now))
        self.before = self.loop.integrity()
        assert self.before["pooled"] == 1

    @pytest.mark.parametrize("schedule", [
        lambda loop, bad: loop.call_at(bad, lambda: None),
        lambda loop, bad: loop.call_at(bad, lambda: None, transient=True),
        lambda loop, bad: loop.call_after(bad, lambda: None),
        lambda loop, bad: loop.call_after(bad, lambda: None, transient=True),
        lambda loop, bad: loop.call_every(bad, lambda: None),
        lambda loop, bad: loop.call_every(1.0, lambda: None, first_after=bad),
    ], ids=["call_at", "call_at_transient", "call_after",
            "call_after_transient", "call_every_period",
            "call_every_first_after"])
    def test_rejected_and_nothing_pushed(self, schedule):
        with pytest.raises(SimulationError):
            schedule(self.loop, self.BAD)
        assert self.loop.integrity() == self.before
        assert len(self.loop) == 2

    def test_queue_order_and_clock_unaffected(self):
        with pytest.raises(SimulationError):
            self.loop.call_at(self.BAD, lambda: self.fired.append("bad"))
        self.loop.run_until(1.2)
        assert self.fired == [0.7, 1.0, 1.2]
        assert self.clock.now == 1.2


class TestInfiniteTimesRejected(TestNanTimesRejected):
    """An event at t=inf drags the clock to inf, and a timer with an
    infinite period then re-arms at inf forever, so a run without a
    deadline never returns.  Same contract as NaN: refuse, push nothing."""

    BAD = math.inf


class TestPeriodLeftByCallback:
    """A timer callback may retune ``handle.period``; the firing that
    leaves an unusable period must fail there, naming the timer, instead
    of re-arming in the past (a later "clock moving backwards") or at
    NaN."""

    def setup_method(self):
        self.clock = SimClock()
        self.loop = EventLoop(self.clock)
        self.loop.call_at(5.0, lambda: None)

    @pytest.mark.parametrize("period", [-1.0, 0.0, float("nan"), math.inf])
    def test_bad_period_raises_and_pushes_nothing(self, period):
        def retune():
            handle.period = period
        handle = self.loop.call_every(1.0, retune, name="retuned")
        before = self.loop.integrity()
        with pytest.raises(SimulationError, match="retuned"):
            self.loop.step()
        assert self.clock.now == 1.0
        # The timer's entry was popped and not re-armed; the one-shot
        # is untouched.
        assert len(self.loop) == 1
        after = self.loop.integrity()
        assert after["heap_size"] == before["heap_size"] - 1
        assert after["flag_errors"] == after["pool_errors"] == 0
        assert self.loop.next_event_time() == 5.0


class TestTransientHandlePool:
    """Audit of the transient free list against heap compaction.

    The hazard under test: a cancelled handle can still back a heap
    entry that compaction has not yet swept.  If such a handle were
    recycled, ``call_at`` resets ``cancelled = False`` — resurrecting
    the stale entry at its old deadline.  The pool must therefore only
    ever contain fired, uncancelled, out-of-heap one-shots.
    """

    def setup_method(self):
        self.clock = SimClock()
        self.loop = EventLoop(self.clock)
        self.fired: list = []

    def test_fired_transient_is_recycled(self):
        h1 = self.loop.call_after(1.0, lambda: self.fired.append("a"),
                                  transient=True)
        self.loop.run_until(2.0)
        assert self.loop.integrity()["pooled"] == 1
        h2 = self.loop.call_after(1.0, lambda: self.fired.append("b"),
                                  transient=True)
        assert h2 is h1          # free-list reuse
        self.loop.run_until(4.0)
        assert self.fired == ["a", "b"]
        assert self.loop.integrity()["pool_errors"] == 0

    def test_cancelled_transient_never_pooled(self):
        h = self.loop.call_after(1.0, lambda: self.fired.append("x"),
                                 transient=True)
        h.cancel()
        self.loop.run_until(2.0)
        audit = self.loop.integrity()
        assert audit["pooled"] == 0
        assert self.fired == []
        # A fresh transient must be a new handle, not the cancelled one.
        h2 = self.loop.call_after(1.0, lambda: None, transient=True)
        assert h2 is not h

    def test_periodic_handles_never_pooled(self):
        h = self.loop.call_every(1.0, lambda: self.fired.append("t"))
        self.loop.run_until(3.5)
        h.cancel()
        self.loop.run_until(5.0)
        assert self.loop.integrity()["pooled"] == 0

    def test_recycle_does_not_resurrect_compacted_entry(self):
        # Build a heap big enough to arm compaction (>= 64 entries),
        # then cancel a majority including a transient whose stale entry
        # compaction sweeps.  Reusing the pool afterwards must not fire
        # anything at the cancelled handle's old deadline.
        victims = [self.loop.call_at(50.0 + i, (lambda j=i: self.fired.append(j)),
                                     transient=True)
                   for i in range(40)]
        keepers = [self.loop.call_at(90.0 + i, lambda: self.fired.append("keep"))
                   for i in range(30)]
        for v in victims:
            v.cancel()                      # triggers compaction mid-loop
        audit = self.loop.integrity()
        assert audit["cancelled"] == audit["tracked_cancelled"]
        # Compaction ran at least once: most victims' entries are gone.
        assert sum(1 for v in victims if not v._in_heap) >= 36
        # Drain the pool hard: schedule and fire many transients; none
        # may alias a cancelled victim.
        for i in range(40):
            h = self.loop.call_after(1.0 + i * 0.01, lambda: None,
                                     transient=True)
            assert h not in victims
        self.loop.run_until(10.0)
        audit = self.loop.integrity()
        assert audit["flag_errors"] == 0
        assert audit["pool_errors"] == 0
        assert self.fired == []             # no resurrected victim fired
        self.loop.run_until(60.0)
        assert self.fired == []             # old deadlines stay dead
        for k in keepers:
            k.cancel()

    def test_pool_is_bounded(self):
        for i in range(EventLoop._POOL_MAX + 50):
            self.loop.call_after(0.001 * (i + 1), lambda: None,
                                 transient=True)
        self.loop.run_until(10.0)
        audit = self.loop.integrity()
        assert audit["pooled"] <= EventLoop._POOL_MAX
        assert audit["pool_errors"] == 0

    def test_cancel_after_fire_is_harmless(self):
        # Consumers are told not to cancel a fired transient, but a
        # late cancel must at worst waste the handle, never corrupt.
        h = self.loop.call_after(1.0, lambda: self.fired.append("a"),
                                 transient=True)
        self.loop.run_until(2.0)
        h.cancel()
        h2 = self.loop.call_after(1.0, lambda: self.fired.append("b"),
                                  transient=True)
        self.loop.run_until(4.0)
        assert self.fired == ["a", "b"]
        assert self.loop.integrity()["pool_errors"] == 0


def _has_numpy() -> bool:
    try:
        import numpy  # noqa: F401
        return True
    except ImportError:
        return False


@pytest.mark.skipif(not _has_numpy(),
                    reason="RngFactory streams need the optional numpy")
class TestRngFactory:
    def test_same_name_same_stream(self):
        f = RngFactory(42)
        a = f.stream("x")
        b = f.stream("x")
        assert a is b

    def test_different_names_independent(self):
        f = RngFactory(42)
        xs = f.stream("x").random(5)
        ys = f.stream("y").random(5)
        assert not (xs == ys).all()

    def test_reproducible_across_factories(self):
        a = RngFactory(7).stream("w").random(10)
        b = RngFactory(7).stream("w").random(10)
        assert (a == b).all()

    def test_different_seeds_differ(self):
        a = RngFactory(1).stream("w").random(10)
        b = RngFactory(2).stream("w").random(10)
        assert not (a == b).all()

    def test_fork_is_deterministic(self):
        a = RngFactory(3).fork(5).stream("s").random(4)
        b = RngFactory(3).fork(5).stream("s").random(4)
        assert (a == b).all()
        c = RngFactory(3).fork(6).stream("s").random(4)
        assert not (a == c).all()


class TestEventLoopProperties:
    """Hypothesis: arbitrary schedules fire in time order, deterministically."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=50, deadline=None)
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                     allow_nan=False), min_size=1,
                           max_size=30))
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        from repro.sim import EventLoop, SimClock
        clock = SimClock()
        loop = EventLoop(clock)
        fired: list[tuple[float, int]] = []
        for i, d in enumerate(delays):
            loop.call_at(d, lambda i=i: fired.append((clock.now, i)))
        loop.run_until(101.0)
        assert len(fired) == len(delays)
        times = [t for t, _ in fired]
        assert times == sorted(times)
        # Ties fire in insertion order.
        for (t1, i1), (t2, i2) in zip(fired, fired[1:]):
            if t1 == t2:
                assert i1 < i2

    @settings(max_examples=30, deadline=None)
    @given(periods=st.lists(st.floats(min_value=0.1, max_value=5.0),
                            min_size=1, max_size=5),
           horizon=st.floats(min_value=1.0, max_value=20.0))
    def test_periodic_firing_counts(self, periods, horizon):
        import math
        from repro.sim import EventLoop, SimClock
        clock = SimClock()
        loop = EventLoop(clock)
        counts = [0] * len(periods)
        for i, p in enumerate(periods):
            loop.call_every(p, lambda i=i: counts.__setitem__(
                i, counts[i] + 1))
        loop.run_until(horizon)
        for p, c in zip(periods, counts):
            expected = math.floor(horizon / p + 1e-9)
            assert abs(c - expected) <= 1  # float boundary tolerance


class TestEventLoopReference:
    """Hypothesis: the loop against a sorted-list reference model.

    Random programs mix one-shots (plain and transient, so recycled
    handles are handed out again), periodic timers whose callbacks
    change their own period, outside period edits, cancellations (bulk
    ones push the heap into compaction), single ``step`` calls and
    ``run_until`` deadlines.  The reference keeps the pending events as
    a plain list ordered by ``(when, insertion number)``; after every
    operation the fired sequence, the clock and ``integrity()`` must
    agree with it.
    """

    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    OPS = st.lists(st.one_of(
        st.tuples(st.just("at"), st.floats(min_value=0.0, max_value=3.0),
                  st.integers(1, 80), st.booleans()),
        st.tuples(st.just("every"), st.floats(min_value=0.05, max_value=1.0),
                  st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
                  st.floats(min_value=0.5, max_value=2.0)),
        st.tuples(st.just("cancel"), st.integers(1, 4), st.integers(0, 3)),
        st.tuples(st.just("period"), st.integers(0, 1000),
                  st.floats(min_value=0.05, max_value=1.0)),
        st.tuples(st.just("step"), st.integers(1, 30)),
        st.tuples(st.just("run"), st.floats(min_value=0.0, max_value=2.0)),
    ), min_size=1, max_size=60)

    @settings(max_examples=60, deadline=None)
    @given(ops=OPS)
    # Compaction: 80 pending, then every other one cancelled, then the
    # rest; recycled transients; a timer edited from outside.
    @example(ops=[("at", 1.0, 80, True), ("every", 0.1, None, 2.0),
                  ("cancel", 2, 0), ("cancel", 1, 0), ("at", 0.5, 3, True),
                  ("step", 10), ("at", 1.0, 70, True), ("period", 0, 0.3),
                  ("run", 1.5), ("at", 0.2, 5, True), ("cancel", 3, 1),
                  ("run", 1.0)])
    def test_matches_sorted_list_reference(self, ops):
        clock = SimClock()
        loop = EventLoop(clock)
        fired: list[tuple[int, float]] = []
        ref_fired: list[tuple[int, float]] = []
        # Reference: id -> [when, seq, period or None, transient];
        # ``seq`` mirrors the loop's insertion counter, which every push
        # (scheduling or re-arming) advances.
        pending: dict[int, list] = {}
        handles: dict[int, object] = {}
        # Periodic timers' callbacks toggle the period between two
        # values (a shrinking factor would fire infinitely often before
        # a deadline).
        periods: dict[int, tuple[float, float]] = {}
        seq = [0]
        pooled = [0]
        next_id = [0]

        def push(ident, when, period, transient):
            pending[ident] = [when, seq[0], period, transient]
            seq[0] += 1

        def toggled(ident, period):
            base, alt = periods[ident]
            return alt if period == base else base

        def make_callback(ident):
            def callback():
                fired.append((ident, clock.now))
                if ident in periods:   # a view-timer-like period change
                    h = handles[ident]
                    h.period = toggled(ident, h.period)
            return callback

        def ref_fire_next(deadline=None):
            if not pending:
                return False
            ident = min(pending, key=lambda i: pending[i][:2])
            when, _, period, transient = pending[ident]
            if deadline is not None and when > deadline:
                return False
            del pending[ident]
            now = float(when)
            ref_fired.append((ident, now))
            if period is not None:
                period = toggled(ident, period)
                push(ident, now + period, period, False)
            elif transient:
                del handles[ident]   # fired transients must not be kept
                pooled[0] = min(pooled[0] + 1, EventLoop._POOL_MAX)
            return True

        for op in ops:
            kind = op[0]
            if kind == "at":
                _, delay, count, transient = op
                for k in range(count):
                    ident = next_id[0]
                    next_id[0] += 1
                    when = clock.now + delay * (k + 1) / count
                    handles[ident] = loop.call_at(
                        when, make_callback(ident), transient=transient)
                    if transient and pooled[0]:
                        pooled[0] -= 1
                    push(ident, when, None, transient)
            elif kind == "every":
                _, period, first_after, factor = op
                ident = next_id[0]
                next_id[0] += 1
                periods[ident] = (period, period * factor)
                handles[ident] = loop.call_every(
                    period, make_callback(ident), first_after=first_after)
                delay = period if first_after is None else first_after
                push(ident, clock.now + delay, period, False)
            elif kind == "cancel":
                _, stride, offset = op   # every stride-th pending event
                for ident in sorted(pending)[offset % stride::stride]:
                    handles[ident].cancel()
                    del pending[ident]
            elif kind == "period":
                _, pick, period = op
                timers = sorted(i for i in pending if pending[i][2] is not None)
                if timers:
                    ident = timers[pick % len(timers)]
                    handles[ident].period = period
                    pending[ident][2] = period
            elif kind == "step":
                for _ in range(op[1]):
                    assert loop.step() is ref_fire_next()
            else:
                deadline = clock.now + op[1]
                loop.run_until(deadline)
                while ref_fire_next(deadline):
                    pass
            assert fired == ref_fired
            if ref_fired:
                assert clock.now >= ref_fired[-1][1]
            report = loop.integrity()
            assert report["live"] == len(pending) == len(loop)
            assert report["cancelled"] == report["tracked_cancelled"]
            assert report["flag_errors"] == report["pool_errors"] == 0
            assert report["pooled"] == pooled[0]
            nxt = loop.next_event_time()
            assert nxt == (min(p[:2] for p in pending.values())[0]
                           if pending else None)
