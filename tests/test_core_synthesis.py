"""Unit tests for repro.core.synthesis: the Figure 4 program generator."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.groups import CenterLeaderPolicy, HierarchicalGroups
from repro.core.network_model import OrientedGrid
from repro.core.program import EXFILTRATE, SEND, Message
from repro.core.synthesis import (
    MGRAPH,
    CountAggregation,
    MaxAggregation,
    SumAggregation,
    synthesize_quadtree_program,
)


@pytest.fixture
def spec4(groups4):
    return synthesize_quadtree_program(groups4, CountAggregation(lambda c: True))


class TestSynthesis:
    def test_max_level_defaults_to_top(self, spec4):
        assert spec4.max_level == 2

    def test_max_level_bounds(self, groups4):
        agg = CountAggregation(lambda c: True)
        with pytest.raises(ValueError):
            synthesize_quadtree_program(groups4, agg, max_level=3)
        with pytest.raises(ValueError):
            synthesize_quadtree_program(groups4, agg, max_level=-1)

    def test_program_for_validates_coord(self, spec4):
        # a valid coordinate's record does not let an invalid one through,
        # on its first call or any later one
        spec4.program_for((0, 0))
        for _ in range(2):
            with pytest.raises(ValueError):
                spec4.program_for((9, 9))
            with pytest.raises(ValueError):
                spec4.roles((9, 9))

    def test_roles(self, spec4):
        root = spec4.roles((0, 0))
        assert root["is_root"] and root["lead_levels"] == [0, 1, 2]
        leaf = spec4.roles((1, 0))
        assert not leaf["is_root"] and leaf["lead_levels"] == [0]

    def test_render_figure4(self, spec4):
        text = spec4.render_figure4()
        assert "mGraph" in text
        assert "msgsReceived" in text
        assert "Condition : start = true" in text
        assert "exfiltrate" in text


class TestSharedRules:
    """One rule set per spec; a program owns only its state."""

    PER_NODE = ("mySubGraph", "msgsReceived", "sendersMerged", "ownMerged")

    def test_programs_share_rules_not_state(self, spec4):
        root, leaf = spec4.program_for((0, 0)), spec4.program_for((1, 0))
        again = spec4.program_for((0, 0))
        assert len(root.rules) == 4
        assert all(r is s for r, s in zip(root.rules, leaf.rules))
        assert all(r is s for r, s in zip(root.rules, again.rules))
        assert root.state is not again.state
        for key in self.PER_NODE:
            assert root.state[key] is not again.state[key], key
        leaf.start()
        assert leaf.state["done"] and not root.state["done"]

    def test_spec_and_rules_are_frozen(self, spec4):
        rule = spec4.program_for((0, 0)).rules[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            rule.action = rule.condition
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec4.max_level = 1

    def test_resent_summary_at_an_unseen_level_merges_once(self, spec4):
        # a failover successor adopts the program state-fresh and re-sends
        # its summary; the level's sender set is made by its first summary
        prog = spec4.program_for((0, 0))
        prog.start()
        assert 2 not in prog.state["sendersMerged"]
        for _ in range(2):
            prog.deliver(Message(MGRAPH, (2, 0), payload=4, level=2))
        assert prog.state["sendersMerged"][2] == {(2, 0)}
        assert prog.state["msgsReceived"][2] == 1
        assert prog.state["mySubGraph"][2] == [4]


class TestLeafBehaviour:
    def test_leaf_sends_to_level1_leader(self, spec4):
        prog = spec4.program_for((1, 0))
        effects = prog.start()
        sends = [e for e in effects if e.kind == SEND]
        assert len(sends) == 1
        assert sends[0].destination == (0, 0)
        assert sends[0].message.kind == MGRAPH
        assert sends[0].message.level == 1
        assert prog.state["done"]

    def test_leaf_payload_is_local_summary(self, spec4):
        prog = spec4.program_for((3, 3))
        effects = prog.start()
        send = next(e for e in effects if e.kind == SEND)
        assert send.message.payload == 1  # CountAggregation local value

    def test_start_is_idempotent_when_done(self, spec4):
        prog = spec4.program_for((1, 0))
        first = prog.start()
        second = prog.start()
        assert any(e.kind == SEND for e in first)
        assert not any(e.kind == SEND for e in second)


class TestLeaderBehaviour:
    def test_level1_leader_self_merges_then_waits(self, spec4):
        prog = spec4.program_for((2, 0))
        effects = prog.start()
        # no radio send yet: own summary self-merged into level 1
        assert not any(e.kind == SEND for e in effects)
        assert prog.state["recLevel"] == 1
        assert prog.state["ownMerged"][1]

    def test_level1_leader_sends_after_three_children(self, spec4):
        prog = spec4.program_for((2, 0))
        prog.start()
        senders = [(3, 0), (2, 1), (3, 1)]
        all_effects = []
        for s in senders:
            all_effects += prog.deliver(
                Message(MGRAPH, s, payload=1, level=1)
            )
        sends = [e for e in all_effects if e.kind == SEND]
        assert len(sends) == 1
        assert sends[0].destination == (0, 0)
        assert sends[0].message.level == 2
        assert sends[0].message.payload == 4  # quadrant count
        assert prog.state["done"]

    def test_root_advances_to_level2_after_its_level1_children(self, spec4):
        prog = spec4.program_for((0, 0))
        prog.start()
        for s in ((1, 0), (0, 1), (1, 1)):
            prog.deliver(Message(MGRAPH, s, payload=1, level=1))
        assert prog.state["recLevel"] == 2

    def test_out_of_order_levels_buffered(self, spec4):
        # The root receives a level-2 message before completing level 1
        # ("A level i leader can receive messages from other level i+1
        #  leaders before it completes processing messages from level
        #  i leaders in its own quadrant").
        prog = spec4.program_for((0, 0))
        prog.start()
        prog.deliver(Message(MGRAPH, (2, 0), payload=4, level=2))
        assert prog.state["msgsReceived"][2] == 1
        assert prog.state["recLevel"] == 1  # still working on level 1

    def test_root_exfiltrates_total(self, spec4):
        prog = spec4.program_for((0, 0))
        prog.start()
        effects = []
        for s in ((1, 0), (0, 1), (1, 1)):
            effects += prog.deliver(Message(MGRAPH, s, payload=1, level=1))
        for s in ((2, 0), (0, 2), (2, 2)):
            effects += prog.deliver(Message(MGRAPH, s, payload=4, level=2))
        exfil = [e for e in effects if e.kind == EXFILTRATE]
        assert len(exfil) == 1
        assert exfil[0].payload == 16
        assert prog.state["exfiltrated"] == 16

    def test_root_handles_arbitrary_arrival_order(self, spec4):
        prog = spec4.program_for((0, 0))
        prog.start()
        effects = []
        # level-2 messages first, then level-1
        for s in ((2, 0), (0, 2), (2, 2)):
            effects += prog.deliver(Message(MGRAPH, s, payload=4, level=2))
        for s in ((1, 0), (0, 1), (1, 1)):
            effects += prog.deliver(Message(MGRAPH, s, payload=1, level=1))
        exfil = [e for e in effects if e.kind == EXFILTRATE]
        assert len(exfil) == 1
        assert exfil[0].payload == 16


class TestPartialReduction:
    def test_max_level_zero_every_node_exfiltrates(self, groups4):
        spec = synthesize_quadtree_program(
            groups4, CountAggregation(lambda c: True), max_level=0
        )
        prog = spec.program_for((3, 1))
        effects = prog.start()
        assert [e.kind for e in effects if e.kind != "log"] == [EXFILTRATE]

    def test_max_level_one_leaders_store(self, groups4):
        spec = synthesize_quadtree_program(
            groups4, CountAggregation(lambda c: True), max_level=1
        )
        prog = spec.program_for((2, 2))
        prog.start()
        effects = []
        for s in ((3, 2), (2, 3), (3, 3)):
            effects += prog.deliver(Message(MGRAPH, s, payload=1, level=1))
        exfil = [e for e in effects if e.kind == EXFILTRATE]
        assert len(exfil) == 1 and exfil[0].payload == 4


class TestNonNestedPolicy:
    def test_gap_levels_still_merge(self):
        grid = OrientedGrid(4)
        groups = HierarchicalGroups(grid, policy=CenterLeaderPolicy())
        spec = synthesize_quadtree_program(groups, CountAggregation(lambda c: True))
        # (1, 1) leads level 2 but not level 1 under the center policy
        assert groups.is_leader((1, 1), 2)
        assert not groups.is_leader((1, 1), 1)
        prog = spec.program_for((1, 1))
        effects = prog.start()
        # its own leaf data goes to the foreign level-1 leader (0, 0)
        sends = [e for e in effects if e.kind == SEND]
        assert len(sends) == 1 and sends[0].destination == (0, 0)
        assert not prog.state["done"]  # still anchors level 2
        # four external level-2 contributions complete the reduction
        all_effects = []
        for s, v in (((0, 0), 4), ((2, 0), 4), ((0, 2), 4), ((2, 2), 4)):
            all_effects += prog.deliver(Message(MGRAPH, s, payload=v, level=2))
        exfil = [e for e in all_effects if e.kind == EXFILTRATE]
        assert len(exfil) == 1 and exfil[0].payload == 16


class TestAlgebraicAggregations:
    def test_max_aggregation(self, groups4):
        readings = {c: float(c[0] + 10 * c[1]) for c in groups4.grid.nodes()}
        spec = synthesize_quadtree_program(
            groups4, MaxAggregation(lambda c: readings[c])
        )
        from repro.core.executor import execute_round

        result = execute_round(spec)
        assert result.root_payload == max(readings.values())

    def test_sum_aggregation(self, groups4):
        spec = synthesize_quadtree_program(groups4, SumAggregation(lambda c: 2.0))
        from repro.core.executor import execute_round

        result = execute_round(spec)
        assert result.root_payload == 32.0

    def test_count_aggregation_partial(self, groups4):
        feature = lambda c: c == (0, 0)
        spec = synthesize_quadtree_program(groups4, CountAggregation(feature))
        from repro.core.executor import execute_round

        result = execute_round(spec)
        assert result.root_payload == 1
