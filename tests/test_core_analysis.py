"""Unit tests for repro.core.analysis: closed-form estimates vs execution."""

from __future__ import annotations

import pytest

from repro.core.analysis import (
    crossover_side,
    estimate_centralized,
    estimate_quadtree,
    group_communication_cost_table,
    quadtree_step_count,
)
from repro.core.executor import execute_round
from repro.core.groups import HierarchicalGroups
from repro.core.network_model import OrientedGrid
from repro.core.synthesis import CountAggregation, synthesize_quadtree_program


class TestQuadtreeEstimate:
    @pytest.mark.parametrize("side", [2, 4, 8, 16, 32])
    def test_matches_execution_exactly(self, side):
        # The promise of the methodology: theoretical analysis corresponds
        # to measured performance.
        est = estimate_quadtree(side)
        groups = HierarchicalGroups(OrientedGrid(side))
        spec = synthesize_quadtree_program(groups, CountAggregation(lambda c: True))
        result = execute_round(spec, charge_compute=False)
        assert result.latency == pytest.approx(est.latency_steps)
        assert result.ledger.total == pytest.approx(est.total_energy)
        assert result.messages == est.messages
        assert result.hop_units == pytest.approx(est.hop_units)

    @pytest.mark.parametrize("side", [2, 4, 8, 16])
    def test_max_node_matches_execution(self, side):
        est = estimate_quadtree(side)
        groups = HierarchicalGroups(OrientedGrid(side))
        spec = synthesize_quadtree_program(groups, CountAggregation(lambda c: True))
        result = execute_round(spec, charge_compute=False)
        measured_max = max(result.ledger.per_node().values())
        assert measured_max == pytest.approx(est.max_node_energy)

    def test_step_count_formula(self):
        assert quadtree_step_count(2) == 2
        assert quadtree_step_count(4) == 6
        assert quadtree_step_count(8) == 14
        # O(sqrt(N)): steps / side -> 2
        assert quadtree_step_count(1024) / 1024 == pytest.approx(2.0, abs=0.01)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            estimate_quadtree(6)
        with pytest.raises(ValueError):
            quadtree_step_count(10)

    def test_custom_message_sizes(self):
        flat = estimate_quadtree(8)
        growing = estimate_quadtree(8, units_at_level=lambda k: float(2**k))
        assert growing.total_energy > flat.total_energy
        assert growing.latency_steps > flat.latency_steps


class TestCentralizedEstimate:
    def test_hop_units_corner_sink(self):
        # sum of manhattan distances to (0,0) on n x n = n^2 (n-1)
        est = estimate_centralized(4)
        assert est.hop_units == 16 * 3
        assert est.total_energy == 2 * est.hop_units

    def test_messages(self):
        assert estimate_centralized(4).messages == 15

    def test_serial_sink_latency(self):
        est = estimate_centralized(8)
        assert est.latency_steps == 63.0  # N-1 dominates the max route (14)

    def test_parallel_sink_latency(self):
        est = estimate_centralized(8, serial_sink=False)
        assert est.latency_steps == 14.0

    def test_center_sink_cheaper(self):
        corner = estimate_centralized(8, sink=(0, 0))
        center = estimate_centralized(8, sink=(4, 4))
        assert center.hop_units < corner.hop_units

    def test_funnel_hotspot(self):
        # (0,1) relays side*(side-1) - 1 = 11 messages plus its own tx
        est = estimate_centralized(4)
        assert est.max_node_energy == 23.0

    def test_hotspot_matches_measured(self):
        import numpy as np

        from repro.apps.centralized import run_centralized

        for side in (2, 4, 8):
            measured = max(
                run_centralized(np.zeros((side, side), dtype=bool))
                .ledger.per_node()
                .values()
            )
            assert estimate_centralized(side).max_node_energy == measured


class TestComparison:
    def test_designs_coincide_on_2x2(self):
        # on a 2x2 grid the quad-tree *is* direct collection at the corner
        q = estimate_quadtree(2)
        c = estimate_centralized(2)
        assert q.total_energy == c.total_energy

    @pytest.mark.parametrize("side", [4, 8, 16, 32, 64])
    def test_quadtree_wins_energy_beyond_2x2(self, side):
        q = estimate_quadtree(side)
        c = estimate_centralized(side)
        assert q.total_energy < c.total_energy

    def test_energy_ratio_grows_like_sqrt_n(self):
        r8 = (
            estimate_centralized(8).total_energy
            / estimate_quadtree(8).total_energy
        )
        r32 = (
            estimate_centralized(32).total_energy
            / estimate_quadtree(32).total_energy
        )
        # ratio ~ side/4, so growing by ~4x when side grows 4x
        assert r32 / r8 == pytest.approx(4.0, rel=0.15)

    def test_crossover_exists_and_small(self):
        side = crossover_side()
        assert side is not None
        assert side <= 4  # serial sink loses early

    def test_quadtree_hotspot_smaller(self):
        q = estimate_quadtree(16)
        c = estimate_centralized(16)
        assert q.max_node_energy < c.max_node_energy


class TestGroupCostTable:
    def test_table_levels(self):
        table = group_communication_cost_table(8)
        assert set(table) == {1, 2, 3}

    def test_max_hops_follows_block_diameter(self):
        # farthest follower of a 2^k block is 2*(2^k - 1) hops from the NW
        # corner; the cost is proportional to hop distance (Section 4.2)
        table = group_communication_cost_table(16)
        for level in (1, 2, 3, 4):
            assert table[level]["max_hops"] == 2 * (2**level - 1)

    def test_level1_values(self):
        table = group_communication_cost_table(4)
        assert table[1]["max_hops"] == 2.0
        assert table[1]["total_hops"] == 16.0  # 4 groups x (1+1+2)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            group_communication_cost_table(12)
