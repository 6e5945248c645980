"""Regression tests for the reliable-transport bugs fixed in PR 1.

1. ``_seen_uids`` grew without bound; it is now a per-origin high-water
   mark plus a bounded out-of-order window.
2. Retransmission re-sent the *same mutable* envelope object after
   downstream hops had already incremented ``hops`` — the retransmitted
   copy must carry the hop count as of its first transmission.
3. The retry delay must stop growing at ``BACKOFF_MAX`` however many
   attempts a hop has made.
"""

from __future__ import annotations

import pytest

from repro.runtime import deploy
from repro.runtime.routing import (
    ACK_KIND,
    BACKOFF_JITTER,
    BACKOFF_MAX,
    DEDUP_WINDOW,
    TRANSPORT_KIND,
    TransportProcess,
    trace_route,
)
from repro.simulator.engine import Simulator
from repro.simulator.network import WirelessMedium
from repro.simulator.process import ProcessHost
from repro.simulator.trace import stable_unit

from conftest import RecordingTransport, make_deployment


def seen(states, window, key, seq) -> bool:
    """The dedup window's answer for ``seq`` without marking it (asked of
    a copy of the window states)."""
    copy = {k: list(v) for k, v in states.items()}
    return TransportProcess._window_hit(copy, window, key, seq)


def mark(states, window, key, seq) -> None:
    TransportProcess._window_hit(states, window, key, seq)


class TestDedupWindow:
    def test_in_order_duplicates_suppressed(self):
        states = {}
        for seq in range(100):
            assert not seen(states, DEDUP_WINDOW, 7, seq)
            mark(states, DEDUP_WINDOW, 7, seq)
            assert seen(states, DEDUP_WINDOW, 7, seq)

    def test_memory_bounded_per_origin(self):
        states = {}
        for seq in range(10_000):
            mark(states, 64, 3, seq)
        # the seed kept one set entry per uid ever seen (10k here); the
        # window keeps a high-water mark and a mask of at most 64 bits
        top, mask = states[3]
        assert mask.bit_length() <= 64
        assert top == 9_999

    def test_new_uid_within_window_not_suppressed(self):
        states = {}
        # arrivals out of order: 5 arrives before 3
        mark(states, 16, 1, 5)
        assert not seen(states, 16, 1, 3)  # new uid, just displaced
        mark(states, 16, 1, 3)
        assert seen(states, 16, 1, 3)
        assert not seen(states, 16, 1, 4)  # the gap is still new

    def test_uids_older_than_window_assumed_seen(self):
        states = {}
        mark(states, 8, 1, 100)
        assert seen(states, 8, 1, 92)   # <= high - window: treated as seen
        assert not seen(states, 8, 1, 93)  # inside the window: still new

    def test_origins_independent(self):
        states = {}
        mark(states, DEDUP_WINDOW, 1, 50)
        assert not seen(states, DEDUP_WINDOW, 2, 50)


class TestBackoffMaxValidation:
    """``BACKOFF_MAX`` caps the retry delay before the jitter stretches it."""

    def test_positive_cap_caps_the_retry_delay(self):
        tp = TransportProcess(topology=None, binding=None, reliable=True)
        tp.node_id = 1
        jitter = stable_unit(1, 1, 0, 10)  # (node, origin, seq, attempt)
        assert tp._retry_delay((1, 0), 10) == BACKOFF_MAX * (1.0 + BACKOFF_JITTER * jitter)


class TestDedupWindowBoundary:
    """Pin the exact window edge and the long-run memory contract."""

    def test_seq_exactly_at_high_minus_window_assumed_seen(self):
        window = 32
        states = {}
        high = 1_000
        mark(states, window, 9, high)
        # the closed boundary: high - window is the *first* assumed-seen seq
        assert seen(states, window, 9, high - window)
        assert not seen(states, window, 9, high - window + 1)
        # marking the first in-window seq flips only that seq
        mark(states, window, 9, high - window + 1)
        assert seen(states, window, 9, high - window + 1)
        assert not seen(states, window, 9, high - window + 2)

    def test_boundary_shifts_as_high_water_advances(self):
        states = {}
        mark(states, 4, 2, 10)
        assert not seen(states, 4, 2, 7)
        mark(states, 4, 2, 11)  # floor moves from 6 to 7
        assert seen(states, 4, 2, 7)
        assert not seen(states, 4, 2, 8)

    def test_evicted_seq_stays_suppressed_via_floor(self):
        """A seq marked inside the window must remain suppressed after
        eviction — the floor rule has to take over from the recent set."""
        window = 8
        states = {}
        mark(states, window, 5, 0)
        assert seen(states, window, 5, 0)
        mark(states, window, 5, window + 1)  # shifts 0 out of the mask
        assert states[5] == [window + 1, 1]
        assert seen(states, window, 5, 0)

    def test_long_churn_run_keeps_per_origin_state_bounded(self):
        """Mirror the on_packet flow (one check-and-mark per arrival) over
        a long out-of-order stream with duplicates: acceptance is
        exactly-once per seq and the mask never outgrows the window."""
        import numpy as np

        window = 64
        states = {}
        rng = np.random.default_rng(17)
        for origin in (1, 2):
            # every seq twice, displaced by < window/2 positions: a
            # realistic retransmit-plus-jitter arrival order
            stream = [s for s in range(5_000) for _ in (0, 1)]
            keys = np.array(stream) + rng.uniform(0, window // 2, len(stream))
            accepted = set()
            for idx in np.argsort(keys, kind="stable"):
                seq = stream[int(idx)]
                if not TransportProcess._window_hit(states, window, origin, seq):
                    accepted.add(seq)
                assert states[origin][1].bit_length() <= window, (
                    f"mask exceeded the dedup window at seq {seq}"
                )
            # reordering stays inside the window, so acceptance is
            # *exactly* once per seq — no duplicates, no false positives
            assert accepted == set(range(5_000))
        assert set(states) == {1, 2}
        assert states[1][0] == states[2][0] == 4_999


class AckDroppingMedium(WirelessMedium):
    """Drops the first ``n_drops`` acknowledgement unicasts outright,
    forcing upstream retransmission of envelopes that *were* delivered."""

    def __init__(self, *args, n_drops: int = 1, **kwargs):
        super().__init__(*args, **kwargs)
        self.acks_to_drop = n_drops
        self.transport_log = []  # (src, dst, uid, hops) per envelope unicast

    def unicast(self, src, dst, kind, payload, size_units=1.0):
        if kind == ACK_KIND and self.acks_to_drop > 0:
            self.acks_to_drop -= 1
            return False
        if kind == TRANSPORT_KIND:
            self.transport_log.append((src, dst, payload.uid, payload.hops))
        return super().unicast(src, dst, kind, payload, size_units)


@pytest.fixture(scope="module")
def stack4():
    net = make_deployment(side=4, seed=3)
    return net, deploy(net)


class TestRetransmissionHopAccounting:
    def run_one_envelope(self, net, stack, n_ack_drops):
        sim = Simulator()
        medium = AckDroppingMedium(sim, net, n_drops=n_ack_drops)
        host = ProcessHost(sim, medium)
        log = []
        for nid in net.alive_ids():
            host.add(
                nid,
                RecordingTransport(
                    log, [], stack.topology, stack.binding, reliable=True, max_retries=8
                ),
            )
        src_cell, dst_cell = (0, 0), (3, 3)
        origin = stack.binding.leader_of(src_cell)
        host.start()
        sim.schedule(0.0, host.get(origin).originate, dst_cell, "payload")
        sim.run_until_quiet()
        return medium, host, [env for _, env in log]

    def test_retransmitted_envelope_hops_not_inflated(self, stack4):
        """The wire-level regression: every retransmission of (src, uid, dst)
        must carry the same hop count as the first attempt.  On the seed the
        retransmitted object had been incremented by downstream hops."""
        net, stack = stack4
        medium, host, delivered = self.run_one_envelope(net, stack, n_ack_drops=1)
        retransmissions = sum(p.retransmissions for p in host.processes.values())
        assert retransmissions >= 1, "ack drop did not force a retransmission"
        by_attempt = {}
        for src, dst, uid, hops in medium.transport_log:
            by_attempt.setdefault((src, dst, uid), []).append(hops)
        repeated = {k: v for k, v in by_attempt.items() if len(v) > 1}
        assert repeated, "no transmission was attempted twice"
        for key, hop_values in repeated.items():
            assert len(set(hop_values)) == 1, (
                f"retransmission of {key} carried inflated hops: {hop_values}"
            )

    def test_delivered_hops_match_loss_free_path_length(self, stack4):
        net, stack = stack4
        expected = len(trace_route(stack.topology, stack.binding, (0, 0), (3, 3))) - 1
        for n_ack_drops in (0, 1, 3):
            _, host, delivered = self.run_one_envelope(net, stack, n_ack_drops)
            assert len(delivered) == 1  # at-most-once (and it got through)
            assert delivered[0].hops == expected, (
                f"hop count diverged from loss-free path under "
                f"{n_ack_drops} forced ack drops"
            )

    def test_duplicate_suppression_counter_exposed(self, stack4):
        net, stack = stack4
        _, host, _ = self.run_one_envelope(net, stack, n_ack_drops=2)
        suppressed = sum(
            p.duplicates_suppressed for p in host.processes.values()
        )
        assert suppressed >= 1
        stats = next(iter(host.processes.values())).transport_stats()
        assert set(stats) == {
            "forwarded", "drops", "retransmissions", "duplicates_suppressed",
            "rejected_frames",
        }
