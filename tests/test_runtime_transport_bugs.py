"""Regression tests for the reliable-transport bugs fixed in PR 1.

1. ``_seen_uids`` grew without bound; it is now a per-origin high-water
   mark plus a bounded out-of-order window.
2. Retransmission re-sent the *same mutable* envelope object after
   downstream hops had already incremented ``hops`` — the retransmitted
   copy must carry the hop count as of its first transmission.
3. A non-positive ``backoff_max`` was accepted; the first reliable
   forward then failed mid-run in ``Simulator.schedule_timer``.
"""

from __future__ import annotations

import re

import pytest

from repro.runtime import deploy
from repro.runtime.routing import (
    ACK_KIND,
    TRANSPORT_KIND,
    TransportProcess,
    trace_route,
)
from repro.simulator.engine import Simulator
from repro.simulator.network import WirelessMedium
from repro.simulator.process import ProcessHost

from conftest import make_deployment


def make_transport(**kwargs) -> TransportProcess:
    """A detached TransportProcess (dedup logic needs no network)."""
    return TransportProcess(topology=None, binding=None, **kwargs)


class TestDedupWindow:
    def test_in_order_duplicates_suppressed(self):
        tp = make_transport(reliable=True)
        for seq in range(100):
            assert not tp._uid_seen(7, seq)
            tp._uid_mark(7, seq)
            assert tp._uid_seen(7, seq)

    def test_memory_bounded_per_origin(self):
        tp = make_transport(reliable=True, dedup_window=64)
        for seq in range(10_000):
            tp._uid_mark(3, seq)
        # the seed kept one set entry per uid ever seen (10k here); the
        # window keeps a high-water mark and a mask of at most 64 bits
        top, mask = tp._seen[3]
        assert mask.bit_length() <= 64
        assert top == 9_999

    def test_new_uid_within_window_not_suppressed(self):
        tp = make_transport(reliable=True, dedup_window=16)
        # arrivals out of order: 5 arrives before 3
        tp._uid_mark(1, 5)
        assert not tp._uid_seen(1, 3)  # new uid, just displaced
        tp._uid_mark(1, 3)
        assert tp._uid_seen(1, 3)
        assert not tp._uid_seen(1, 4)  # the gap is still new

    def test_uids_older_than_window_assumed_seen(self):
        tp = make_transport(reliable=True, dedup_window=8)
        tp._uid_mark(1, 100)
        assert tp._uid_seen(1, 92)   # <= high - window: treated as seen
        assert not tp._uid_seen(1, 93)  # inside the window: still new

    def test_origins_independent(self):
        tp = make_transport(reliable=True)
        tp._uid_mark(1, 50)
        assert not tp._uid_seen(2, 50)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            make_transport(reliable=True, dedup_window=0)


class TestBackoffMaxValidation:
    """The retry-delay cap is checked like ``ack_timeout``: at construction
    and at every re-arm, not by a timer failing mid-run."""

    @pytest.mark.parametrize("cap", [-1.0, 0.0, 0])
    def test_non_positive_cap_rejected_at_construction(self, cap):
        with pytest.raises(ValueError, match=re.escape(f"backoff_max must be > 0, got {cap}")):
            make_transport(reliable=True, backoff_max=cap)

    def test_non_positive_cap_rejected_at_rearm(self):
        tp = make_transport(reliable=True, backoff_max=2.0)
        with pytest.raises(ValueError, match=re.escape("backoff_max must be > 0, got -1.0")):
            tp.arm(None, None, reliable=True, backoff_max=-1.0)

    def test_positive_cap_caps_the_retry_delay(self):
        tp = make_transport(reliable=True, backoff_max=5.0, backoff_jitter=0.0)
        assert tp._retry_delay((1, 0), 10) == 5.0


class TestDedupWindowBoundary:
    """Pin the exact window edge and the long-run memory contract."""

    def test_seq_exactly_at_high_minus_window_assumed_seen(self):
        window = 32
        tp = make_transport(reliable=True, dedup_window=window)
        high = 1_000
        tp._uid_mark(9, high)
        # the closed boundary: high - window is the *first* assumed-seen seq
        assert tp._uid_seen(9, high - window)
        assert not tp._uid_seen(9, high - window + 1)
        # marking the first in-window seq flips only that seq
        tp._uid_mark(9, high - window + 1)
        assert tp._uid_seen(9, high - window + 1)
        assert not tp._uid_seen(9, high - window + 2)

    def test_boundary_shifts_as_high_water_advances(self):
        tp = make_transport(reliable=True, dedup_window=4)
        tp._uid_mark(2, 10)
        assert not tp._uid_seen(2, 7)
        tp._uid_mark(2, 11)  # floor moves from 6 to 7
        assert tp._uid_seen(2, 7)
        assert not tp._uid_seen(2, 8)

    def test_evicted_seq_stays_suppressed_via_floor(self):
        """A seq marked inside the window must remain suppressed after
        eviction — the floor rule has to take over from the recent set."""
        window = 8
        tp = make_transport(reliable=True, dedup_window=window)
        tp._uid_mark(5, 0)
        assert tp._uid_seen(5, 0)
        tp._uid_mark(5, window + 1)  # shifts 0 out of the mask
        assert tp._seen[5] == [window + 1, 1]
        assert tp._uid_seen(5, 0)

    def test_long_churn_run_keeps_per_origin_state_bounded(self):
        """Mirror the on_packet flow (mark only unseen seqs) over a long
        out-of-order stream with duplicates: acceptance is exactly-once
        per seq and the recent set never outgrows the window."""
        import numpy as np

        window = 64
        tp = make_transport(reliable=True, dedup_window=window)
        rng = np.random.default_rng(17)
        for origin in (1, 2):
            # every seq twice, displaced by < window/2 positions: a
            # realistic retransmit-plus-jitter arrival order
            stream = [s for s in range(5_000) for _ in (0, 1)]
            keys = np.array(stream) + rng.uniform(0, window // 2, len(stream))
            accepted = set()
            for idx in np.argsort(keys, kind="stable"):
                seq = stream[int(idx)]
                if not tp._uid_seen(origin, seq):
                    tp._uid_mark(origin, seq)
                    accepted.add(seq)
                assert tp._seen[origin][1].bit_length() <= window, (
                    f"mask exceeded the dedup window at seq {seq}"
                )
            # reordering stays inside the window, so acceptance is
            # *exactly* once per seq — no duplicates, no false positives
            assert accepted == set(range(5_000))
        assert set(tp._seen) == {1, 2}
        assert tp._seen[1][0] == tp._seen[2][0] == 4_999


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
        delivered = []
        for nid in net.alive_ids():
            host.add(
                nid,
                TransportProcess(
                    stack.topology,
                    stack.binding,
                    on_deliver=lambda proc, env: delivered.append(env),
                    reliable=True,
                    max_retries=8,
                ),
            )
        src_cell, dst_cell = (0, 0), (3, 3)
        origin = stack.binding.leader_of(src_cell)
        host.start()
        sim.schedule(0.0, host.get(origin).originate, dst_cell, "payload")
        sim.run_until_quiet()
        return medium, host, delivered

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
