"""Unit tests for the tree-topology synthesis and executor."""

from __future__ import annotations

import pytest

from repro.core import (
    CountAggregation,
    MaxAggregation,
    SumAggregation,
    VirtualTree,
    execute_round,
    synthesize_tree_program,
)
from repro.core.program import Message
from repro.core.synthesis import MGRAPH


class TestTreePrograms:
    def test_leaf_sends_to_parent(self):
        tree = VirtualTree(2, 2)
        spec = synthesize_tree_program(tree, CountAggregation(lambda a: True))
        prog = spec.program_for((2, 3))
        effects = prog.start()
        sends = [e for e in effects if e.kind == "send"]
        assert len(sends) == 1
        assert sends[0].destination == (1, 1)
        assert sends[0].message.kind == MGRAPH
        assert prog.state["done"]

    def test_interior_waits_for_all_children(self):
        tree = VirtualTree(3, 1)
        spec = synthesize_tree_program(tree, CountAggregation(lambda a: True))
        prog = spec.program_for((0, 0))  # root with 3 children
        prog.start()
        effects = []
        for i in range(3):
            effects += prog.deliver(
                Message(MGRAPH, (1, i), payload=1, level=1)
            )
        exfil = [e for e in effects if e.kind == "exfiltrate"]
        assert len(exfil) == 1
        assert exfil[0].payload == 3

    def test_interior_does_not_sense(self):
        # only leaves contribute local values (Section 4.1)
        tree = VirtualTree(2, 1)
        spec = synthesize_tree_program(tree, CountAggregation(lambda a: True))
        prog = spec.program_for((0, 0))
        prog.start()
        effects = []
        for i in range(2):
            effects += prog.deliver(Message(MGRAPH, (1, i), payload=1, level=1))
        exfil = [e for e in effects if e.kind == "exfiltrate"]
        assert exfil[0].payload == 2  # children only, no own +1

    def test_programs_share_rules_not_state(self):
        tree = VirtualTree(2, 2)
        spec = synthesize_tree_program(tree, CountAggregation(lambda a: True))
        root, leaf = spec.program_for((0, 0)), spec.program_for((2, 3))
        assert len(root.rules) == 4
        assert all(r is s for r, s in zip(root.rules, leaf.rules))
        leaf.start()
        assert leaf.state["done"] and not root.state["done"]

    def test_validates_address(self):
        tree = VirtualTree(2, 2)
        spec = synthesize_tree_program(tree, CountAggregation(lambda a: True))
        for _ in range(2):
            with pytest.raises(ValueError):
                spec.program_for((5, 0))


class TestTreeExecution:
    @pytest.mark.parametrize("arity,depth", [(2, 1), (2, 4), (3, 3), (4, 2)])
    def test_count_equals_leaf_count(self, arity, depth):
        tree = VirtualTree(arity, depth)
        spec = synthesize_tree_program(tree, CountAggregation(lambda a: True))
        result = execute_round(spec)
        assert result.root_payload == arity**depth
        assert list(result.exfiltrated) == [(0, 0)]

    def test_message_count_is_edges(self):
        tree = VirtualTree(2, 3)
        spec = synthesize_tree_program(tree, CountAggregation(lambda a: True))
        result = execute_round(spec)
        assert result.messages == tree.num_nodes - 1

    def test_latency_is_depth(self):
        tree = VirtualTree(4, 3)
        spec = synthesize_tree_program(tree, CountAggregation(lambda a: True))
        result = execute_round(spec, charge_compute=False)
        assert result.latency == 3.0  # one unit per tree level

    def test_energy_two_per_edge(self):
        tree = VirtualTree(2, 2)
        spec = synthesize_tree_program(tree, CountAggregation(lambda a: True))
        result = execute_round(spec, charge_compute=False)
        assert result.ledger.total == 2.0 * (tree.num_nodes - 1)

    def test_max_reduction(self):
        tree = VirtualTree(2, 3)
        spec = synthesize_tree_program(
            tree, MaxAggregation(lambda a: float(a[1]))
        )
        result = execute_round(spec)
        assert result.root_payload == 7.0  # largest leaf index

    def test_sum_reduction(self):
        tree = VirtualTree(3, 2)
        spec = synthesize_tree_program(tree, SumAggregation(lambda a: 2.0))
        result = execute_round(spec)
        assert result.root_payload == 18.0

    def test_single_node_tree(self):
        tree = VirtualTree(2, 0)
        spec = synthesize_tree_program(tree, CountAggregation(lambda a: True))
        result = execute_round(spec)
        assert result.root_payload == 1
        assert result.messages == 0

    def test_deterministic(self):
        tree = VirtualTree(3, 3)
        spec = synthesize_tree_program(tree, SumAggregation(lambda a: a[1] * 1.0))
        a = execute_round(spec)
        b = execute_round(
            synthesize_tree_program(tree, SumAggregation(lambda a: a[1] * 1.0))
        )
        assert a.root_payload == b.root_payload
        assert a.ledger.per_node() == b.ledger.per_node()


class TestTreeVsGridComparison:
    def test_tree_latency_beats_grid_for_equal_leaves(self):
        # 256 leaves: quad-tree-over-grid pays hop distance; a dedicated
        # 4-ary tree topology pays only its depth — the non-uniform-
        # deployment trade the paper mentions.
        from repro.core import HierarchicalGroups, OrientedGrid
        from repro.core import synthesize_quadtree_program

        grid_spec = synthesize_quadtree_program(
            HierarchicalGroups(OrientedGrid(16)),
            CountAggregation(lambda c: True),
        )
        grid = execute_round(grid_spec, charge_compute=False)

        tree = VirtualTree(4, 4)  # 256 leaves
        tree_spec = synthesize_tree_program(tree, CountAggregation(lambda a: True))
        tree_result = execute_round(tree_spec, charge_compute=False)

        assert tree_result.latency < grid.latency
        assert grid.root_payload == 256
        # the tree counts its own 256 leaves
        assert tree_result.root_payload == 256
