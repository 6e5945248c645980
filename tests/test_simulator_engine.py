"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.simulator.engine import Simulator
from repro.simulator.network import WirelessMedium
from repro.simulator.process import Process, ProcessHost

from conftest import make_deployment


class _Recorder(Process):
    def __init__(self):
        super().__init__()
        self.fired = []

    def on_timer(self, tag):
        self.fired.append((self.now, tag))


def timer_process(sim):
    """A process on ``sim`` whose timers record ``(time, tag)`` firings."""
    net = make_deployment(side=2, n_random=12, seed=3)
    host = ProcessHost(sim, WirelessMedium(sim, net))
    return host.add(net.alive_ids()[0], _Recorder())


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        sim = Simulator()
        order = []
        for tag in "abc":
            sim.schedule(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        final = sim.run()
        assert seen == [2.5]
        assert final == 2.5

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(1.0, inner)

        def inner():
            log.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert log == [("outer", 1.0), ("inner", 2.0)]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)


class TestRunControl:
    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 5]

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i), lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_zero_budget_fires_nothing(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.run(max_events=0) == 0.0
        assert sim.run(until=5.0, max_events=0) == 0.0, "a budget stop keeps the clock"
        assert sim.run_until_lookahead(5.0, max_events=0) == 0
        assert fired == [] and sim.pending == 2 and sim.events_processed == 0

    def test_negative_budget_rejected(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        for run in (
            lambda: sim.run(max_events=-1),
            lambda: sim.run_until_quiet(max_events=-1),
            lambda: sim.run_until_lookahead(5.0, max_events=-1),
        ):
            with pytest.raises(ValueError, match="max_events"):
                run()
        assert fired == [] and sim.now == 0.0

    def test_run_until_quiet_zero_budget(self):
        sim = Simulator()
        assert sim.run_until_quiet(max_events=0) == 0.0  # nothing queued
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        with pytest.raises(RuntimeError, match="did not quiesce within 0 events"):
            sim.run_until_quiet(max_events=0)
        assert fired == []

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_not_reentrant(self):
        sim = Simulator()

        def recurse():
            sim.run()

        sim.schedule(1.0, recurse)
        with pytest.raises(RuntimeError, match="reentrant"):
            sim.run()

    def test_run_until_quiet_detects_livelock(self):
        sim = Simulator()

        def respawn():
            sim.schedule(1.0, respawn)

        sim.schedule(0.0, respawn)
        with pytest.raises(RuntimeError, match="quiesce"):
            sim.run_until_quiet(max_events=50)

    def test_run_until_quiet_returns_final_time(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        assert sim.run_until_quiet() == 3.0


class TestCancellation:
    """A process timer is the engine's only cancellable event; these pin
    the cancellation contracts on it (the registry's own invariants are in
    ``test_simulator_timers.py``)."""

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        proc = timer_process(sim)
        proc.set_timer(1.0, "t")
        sim.run()
        assert proc.cancel_timer("t") is False
        assert proc.fired == [(1.0, "t")]
        assert sim.pending == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        proc = timer_process(sim)
        proc.set_timer(1.0, "keep")
        proc.set_timer(1.0, "drop")
        assert proc.cancel_timer("drop") is True
        assert proc.cancel_timer("drop") is False
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0
        assert proc.fired == [(1.0, "keep")]

    def test_run_until_quiet_ignores_cancelled_tail(self):
        sim = Simulator()
        proc = timer_process(sim)
        sim.schedule(1.0, lambda: None)
        sim.run_until_quiet()
        proc.set_timer(8.0, "tail")
        proc.cancel_timer("tail")
        # only a cancelled event remains: that's quiescent, and skipping
        # it leaves the clock where the last live event left it
        assert sim.run_until_quiet() == 1.0

    def test_clear_drops_queue_but_keeps_clock(self):
        sim = Simulator()
        proc = timer_process(sim)
        sim.schedule(1.0, lambda: None)
        proc.set_timer(3.0, "cancelled")
        proc.cancel_timer("cancelled")
        sim.schedule(5.0, lambda: None)
        sim.run(max_events=1)
        sim.clear()
        assert sim.pending == 0
        assert sim.next_event_time() is None
        assert (sim.now, sim.events_processed) == (1.0, 1)

    def test_clear_refused_while_running(self):
        sim = Simulator()
        sim.schedule(1.0, sim.clear)
        with pytest.raises(RuntimeError, match="running"):
            sim.run()


class TestRunUntilClock:
    """Regression tests for the run(until=...) clock bugs."""

    def test_until_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert sim.now == 5.0
        # the seed silently moved the clock BACKWARD to `until` here
        with pytest.raises(ValueError, match="backward"):
            sim.run(until=1.0)
        assert sim.now == 5.0

    def test_clock_advances_to_until_when_queue_drains(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=10.0) == 10.0
        assert sim.now == 10.0

    def test_repeated_run_until_forms_consistent_timeline(self):
        sim = Simulator()
        ticks = []
        sim.schedule(2.5, lambda: ticks.append(sim.now))
        for t in (1.0, 2.0, 3.0, 4.0):
            assert sim.run(until=float(t)) == t
            assert sim.now == t
        assert ticks == [2.5]
        # scheduling relative to the advanced clock lands where expected
        sim.schedule(1.0, lambda: ticks.append(sim.now))
        sim.run()
        assert ticks == [2.5, 5.0]

    def test_empty_queue_run_until_advances_clock(self):
        sim = Simulator()
        assert sim.run(until=7.0) == 7.0
        assert sim.now == 7.0

    def test_budget_stop_leaves_clock_at_last_fired_event(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        assert sim.run(until=10.0, max_events=2) == 2.0
        assert (sim.now, sim.pending) == (2.0, 1)
        # the next run is not stopped by its budget: the clock owes `until`
        assert sim.run(until=10.0, max_events=5) == 10.0
        assert sim.events_processed == 3

    def test_budget_spent_with_nothing_left_due_still_reaches_until(self):
        """Firing exactly the budget does not make a budget stop: with no
        live event due by ``until`` left, the clock owes ``until``."""
        sim = Simulator()
        for t in (1.0, 2.0):
            sim.schedule(t, lambda: None)
        assert sim.run(until=5.0, max_events=2) == 5.0
        # neither an event past `until` nor a cancelled timer before it
        # is a live event due by `until`
        sim.schedule(1.0, lambda: None)
        sim.schedule(9.0, lambda: None)
        armed = {"t": 1}
        sim.schedule_timer(2.0, armed, "t", 1, lambda tag: None, "t")
        del armed["t"]  # cancelled: the queued entry is now stale
        sim.discount_cancelled()
        assert sim.run(until=8.0, max_events=1) == 8.0
        assert (sim.pending, sim.events_processed) == (1, 3)


class TestScheduleWithArgs:
    def test_args_passed_positionally(self):
        sim = Simulator()
        got = []
        sim.schedule(1.0, lambda a, b: got.append((a, b)), 1, "x")
        sim.schedule_at(2.0, got.append, "tail")
        sim.run()
        assert got == [(1, "x"), "tail"]
