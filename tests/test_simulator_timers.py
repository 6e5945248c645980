"""Regression tests for the tag-indexed timer facility.

Process timers are the engine's only cancellable events: a
generation-stamped registry (``{tag: stamp}``) checked by the engine at
the deadline.  These tests guard its invariants: cancelled timers never
fire (and never advance the clock), a re-armed tag fires exactly once,
and the live-event accounting stays exact.
"""

from __future__ import annotations

import numpy as np

from repro.simulator.engine import Simulator
from repro.simulator.network import WirelessMedium
from repro.simulator.process import Process, ProcessHost

from conftest import make_deployment


class RecorderProcess(Process):
    """Records every on_timer invocation as (time, tag)."""

    def __init__(self):
        super().__init__()
        self.fired = []

    def on_timer(self, tag):
        self.fired.append((self.now, tag))


def make_host():
    net = make_deployment(side=2, n_random=12, seed=3)
    sim = Simulator()
    medium = WirelessMedium(sim, net, rng=np.random.default_rng(3))
    host = ProcessHost(sim, medium)
    nid = net.alive_ids()[0]
    proc = host.add(nid, RecorderProcess())
    return sim, proc


class TestCancellation:
    def test_cancelled_timer_never_fires(self):
        sim, proc = make_host()
        proc.set_timer(2.0, "beat")
        assert proc.cancel_timer("beat")
        sim.run_until_quiet()
        assert proc.fired == []

    def test_cancel_unknown_tag_is_noop(self):
        sim, proc = make_host()
        assert not proc.cancel_timer("never-set")
        proc.set_timer(1.0, "beat")
        sim.run_until_quiet()
        assert proc.fired == [(1.0, "beat")]

    def test_cancel_timers_cancels_everything(self):
        sim, proc = make_host()
        proc.set_timer(1.0, "a")
        proc.set_timer(2.0, "b")
        proc.set_timer(3.0)  # default tag
        proc.cancel_timers()
        sim.run_until_quiet()
        assert proc.fired == []
        assert sim.pending == 0

    def test_cancelled_timer_does_not_advance_clock(self):
        sim, proc = make_host()
        proc.set_timer(50.0, "late")
        proc.cancel_timer("late")
        proc.set_timer(1.0, "early")
        sim.run_until_quiet()
        # the stale deadline at t=50 must not drag the clock forward
        assert sim.now == 1.0
        assert proc.fired == [(1.0, "early")]

    def test_pending_excludes_cancelled_timers(self):
        sim, proc = make_host()
        proc.set_timer(1.0, "a")
        proc.set_timer(2.0, "b")
        assert sim.pending == 2
        proc.cancel_timer("a")
        assert sim.pending == 1
        sim.run_until_quiet()
        assert sim.pending == 0


class TestRearm:
    def test_rearm_same_tag_fires_exactly_once(self):
        sim, proc = make_host()
        proc.set_timer(1.0, "beat")
        proc.set_timer(5.0, "beat")  # supersedes: only the later deadline
        sim.run_until_quiet()
        assert proc.fired == [(5.0, "beat")]

    def test_rearm_after_cancel_fires_exactly_once(self):
        sim, proc = make_host()
        proc.set_timer(4.0, "beat")
        proc.cancel_timer("beat")
        proc.set_timer(2.0, "beat")
        sim.run_until_quiet()
        # the new arm fires; the old cancelled deadline stays dead even
        # though its heap entry outlives the re-arm (stamp monotonicity)
        assert proc.fired == [(2.0, "beat")]
        assert sim.pending == 0

    def test_rearm_from_inside_on_timer(self):
        sim, proc = make_host()
        ticks = []

        def on_timer(tag):
            ticks.append(proc.now)
            if len(ticks) < 3:
                proc.set_timer(1.0, tag)

        proc.on_timer = on_timer
        proc.set_timer(1.0, "beat")
        sim.run_until_quiet()
        assert ticks == [1.0, 2.0, 3.0]

    def test_distinct_tags_are_independent(self):
        sim, proc = make_host()
        proc.set_timer(1.0, "a")
        proc.set_timer(2.0, "b")
        proc.cancel_timer("a")
        sim.run_until_quiet()
        assert proc.fired == [(2.0, "b")]


class TestLiveness:
    def test_timer_on_dead_node_does_not_fire(self):
        sim, proc = make_host()
        proc.set_timer(1.0, "beat")
        proc.medium.network.node(proc.node_id).kill()
        sim.run_until_quiet()
        assert proc.fired == []


class TestEngineTimerPrimitive:
    def test_stale_stamp_is_skipped(self):
        sim = Simulator()
        fired = []
        armed = {"k": 1}
        sim.schedule_timer(5.0, armed, "k", 1, fired.append, "k")
        # supersede by hand: bump the stamp, schedule the replacement
        armed["k"] = 2
        sim.discount_cancelled()
        sim.schedule_timer(7.0, armed, "k", 2, fired.append, "k")
        assert sim.pending == 1
        sim.run()
        assert fired == ["k"]
        assert sim.now == 7.0
        assert armed == {}

    def test_negative_delay_rejected(self):
        sim = Simulator()
        try:
            sim.schedule_timer(-1.0, {}, "k", 1, lambda tag: None, "k")
        except ValueError:
            pass
        else:
            raise AssertionError("negative delay accepted")
