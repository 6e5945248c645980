"""Unit tests for the synchronous (TDMA-style) executor."""

from __future__ import annotations

import pytest

from repro.apps import (
    feature_matrix_aggregation,
    label_regions_quadtree,
    random_feature_matrix,
)
from repro.core import (
    CountAggregation,
    HierarchicalGroups,
    OrientedGrid,
    SumAggregation,
    UniformCostModel,
    execute_round,
    execute_round_sync,
    synthesize_quadtree_program,
)


def make_spec(side, agg=None):
    groups = HierarchicalGroups(OrientedGrid(side))
    return synthesize_quadtree_program(groups, agg or CountAggregation(lambda c: True))


class TestResultEquivalence:
    @pytest.mark.parametrize("side", [1, 2, 4, 8, 16])
    def test_same_answer_as_async(self, side):
        spec = make_spec(side)
        sync = execute_round_sync(make_spec(side))
        async_ = execute_round(spec)
        assert sync.root_payload == async_.root_payload

    def test_same_energy_as_async(self):
        # energy accounting is slot-independent
        sync = execute_round_sync(make_spec(8))
        async_ = execute_round(make_spec(8), charge_compute=True)
        assert sync.ledger.total == pytest.approx(
            async_.ledger.total
        )

    def test_same_messages_and_hop_units(self):
        sync = execute_round_sync(make_spec(8))
        async_ = execute_round(make_spec(8))
        assert sync.messages == async_.messages
        assert sync.hop_units == async_.hop_units

    def test_region_labeling_identical(self):
        feat = random_feature_matrix(8, 0.5, rng=1)
        agg = feature_matrix_aggregation(feat)
        sync = execute_round_sync(make_spec(8, agg))
        assert sync.root_payload == label_regions_quadtree(feat)


class TestSlottedLatency:
    def test_unit_latency_matches_step_count(self):
        # unit messages: slotted latency equals the paper's step count
        from repro.core.analysis import quadtree_step_count

        for side in (2, 4, 8, 16):
            result = execute_round_sync(make_spec(side))
            assert result.latency == quadtree_step_count(side)

    def test_latency_quantized_up(self):
        # fractional sizes round *up* to whole slots, so sync >= async
        cm = UniformCostModel(bandwidth=3.0)
        spec = make_spec(4)
        sync = execute_round_sync(make_spec(4), cost_model=cm)
        async_ = execute_round(spec, cost_model=cm, charge_compute=False)
        assert sync.latency >= async_.latency

    def test_trivial_grid(self):
        result = execute_round_sync(make_spec(1))
        assert result.latency == 0.0
        assert result.root_payload == 1

    def test_deterministic(self):
        feat = random_feature_matrix(8, 0.4, rng=3)
        a = execute_round_sync(make_spec(8, feature_matrix_aggregation(feat)))
        b = execute_round_sync(make_spec(8, feature_matrix_aggregation(feat)))
        assert a.latency == b.latency
        assert a.ledger.per_node() == b.ledger.per_node()

    def test_sum_reduction(self):
        result = execute_round_sync(make_spec(4, SumAggregation(lambda c: 0.5)))
        assert result.root_payload == 8.0
