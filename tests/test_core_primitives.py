"""Unit tests for repro.core.primitives: node and collective primitives."""

from __future__ import annotations

import pytest

from repro.core.groups import HierarchicalGroups
from repro.core.network_model import OrientedGrid
from repro.core.primitives import PrimitiveEnvironment


@pytest.fixture
def env4(grid4):
    return PrimitiveEnvironment(grid4)


class TestSendReceive:
    def test_send_delivers(self, env4):
        env4.send((0, 0), (2, 1), payload="hello")
        envelope = env4.receive((2, 1))
        assert envelope is not None
        assert envelope.sender == (0, 0)
        assert envelope.payload == "hello"

    def test_receive_empty_returns_none(self, env4):
        assert env4.receive((3, 3)) is None

    def test_receive_fifo(self, env4):
        env4.send((0, 0), (1, 0), payload=1)
        env4.send((2, 0), (1, 0), payload=2)
        assert env4.receive((1, 0)).payload == 1
        assert env4.receive((1, 0)).payload == 2

    def test_send_charges_path(self, env4):
        env4.send((0, 0), (3, 0), payload=None, size_units=2.0)
        # 3 hops x (tx + rx) x 2 units
        assert env4.ledger.total == 12.0

    def test_send_returns_latency(self, env4):
        latency = env4.send((0, 0), (2, 2), payload=None)
        assert latency == 4.0

    def test_send_to_self_free(self, env4):
        latency = env4.send((1, 1), (1, 1), payload="x")
        assert latency == 0.0
        assert env4.ledger.total == 0.0
        assert env4.receive((1, 1)).payload == "x"

    def test_send_validates_membership(self, env4):
        with pytest.raises(ValueError):
            env4.send((0, 0), (9, 9), payload=None)

    def test_send_rejects_negative_size(self, env4):
        with pytest.raises(ValueError):
            env4.send((0, 0), (1, 0), payload=None, size_units=-1.0)

    def test_pending(self, env4):
        env4.send((0, 0), (1, 0), payload=None)
        env4.send((0, 0), (1, 0), payload=None)
        assert env4.pending((1, 0)) == 2
        assert env4.pending((0, 0)) == 0

    def test_messages_sent_counter(self, env4):
        env4.send((0, 0), (1, 0), payload=None)
        env4.send_to_leader((3, 3), 1, payload=None)
        assert env4.messages_sent == 2


class TestLeaderAddressing:
    def test_send_to_leader_level1(self, env4):
        env4.send_to_leader((3, 3), 1, payload="up")
        envelope = env4.receive((2, 2))
        assert envelope.payload == "up"

    def test_send_to_leader_cost_proportional_to_hops(self, env4):
        # Section 4.2's contract
        before = env4.ledger.total
        env4.send_to_leader((3, 3), 2, payload=None)
        hops = env4.groups.follower_to_leader_hops((3, 3), 2)
        assert env4.ledger.total - before == 2.0 * hops

    def test_mismatched_groups_rejected(self, grid4):
        other = HierarchicalGroups(OrientedGrid(8))
        with pytest.raises(ValueError):
            PrimitiveEnvironment(grid4, groups=other)


class TestCollectives:
    def test_gather_to_leader(self, env4):
        values = {m: str(m) for m in env4.groups.members((0, 0), 1)}
        envelopes, report = env4.gather_to_leader(
            (1, 1), 1, value_of=lambda m: values[m]
        )
        assert len(envelopes) == 4  # 3 followers + leader's own (free)
        assert report.messages == 3
        assert report.energy == 2.0 * 4  # hop distances 1+1+2, tx+rx
        assert report.latency == 2.0

    def test_gather_clears_inbox(self, env4):
        env4.gather_to_leader((1, 1), 1, value_of=lambda m: 0)
        assert env4.pending((0, 0)) == 0

    def test_broadcast_from_leader(self, env4):
        report = env4.broadcast_from_leader((0, 0), 1, payload="cmd")
        assert report.messages == 3
        for member in env4.groups.followers((0, 0), 1):
            assert env4.receive(member).payload == "cmd"

    def test_reduce_to_leader_value(self, env4):
        value, report = env4.reduce_to_leader(
            (0, 0), 2, value_of=lambda m: 1.0, combine=lambda a, b: a + b
        )
        assert value == 16.0

    def test_reduce_message_count(self, env4):
        _, report = env4.reduce_to_leader(
            (0, 0), 2, value_of=lambda m: 1.0, combine=lambda a, b: a + b
        )
        # 3 per level-1 group (4 groups) + 3 at level 2
        assert report.messages == 15

    def test_reduce_cheaper_than_flat_gather(self):
        grid = OrientedGrid(8)
        env_flat = PrimitiveEnvironment(grid)
        env_tree = PrimitiveEnvironment(grid)
        _, flat = env_flat.gather_to_leader((0, 0), 3, value_of=lambda m: 1.0)
        _, tree = env_tree.reduce_to_leader(
            (0, 0), 3, value_of=lambda m: 1.0, combine=lambda a, b: a + b
        )
        assert tree.energy < flat.energy

    def test_reduce_matches_quadtree_energy(self, env4):
        # the hierarchical reduce IS the quad-tree communication pattern
        _, report = env4.reduce_to_leader(
            (0, 0), 2, value_of=lambda m: 1.0, combine=lambda a, b: a + b
        )
        assert report.energy == 48.0
        assert report.latency == 6.0

    def test_reduce_max(self, env4):
        value, _ = env4.reduce_to_leader(
            (0, 0),
            1,
            value_of=lambda m: float(m[0] * 10 + m[1]),
            combine=max,
        )
        assert value == 11.0


class TestBarrier:
    def test_barrier_cost_symmetric(self, env4):
        report = env4.barrier((0, 0), 1)
        # up: 3 tokens at hops 1,1,2 (energy 8); down: same paths back
        assert report.energy == 16.0
        assert report.messages == 6

    def test_barrier_latency_round_trip(self, env4):
        report = env4.barrier((0, 0), 2)
        # farthest member of the 4x4 group is 6 hops out: 6 up + 6 down
        assert report.latency == 12.0

    def test_barrier_leaves_inboxes_clean(self, env4):
        env4.barrier((0, 0), 1)
        for member in env4.groups.members((0, 0), 1):
            assert env4.pending(member) == 0

    def test_barrier_level_zero_trivial(self, env4):
        report = env4.barrier((2, 2), 0)
        assert report.energy == 0.0
        assert report.messages == 0
