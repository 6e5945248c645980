"""Unit tests for repro.core.executor: design-time execution."""

from __future__ import annotations

import pytest

from repro.core.cost_model import UniformCostModel
from repro.core.executor import execute_round
from repro.core.groups import HierarchicalGroups
from repro.core.network_model import OrientedGrid
from repro.core.synthesis import (
    CountAggregation,
    SumAggregation,
    synthesize_quadtree_program,
)


def make_spec(side, feature=lambda c: True, max_level=None):
    groups = HierarchicalGroups(OrientedGrid(side))
    return synthesize_quadtree_program(
        groups, CountAggregation(feature), max_level=max_level
    )


class TestExecutionBasics:
    def test_root_payload_full_reduction(self):
        result = execute_round(make_spec(4))
        assert result.root_payload == 16
        assert list(result.exfiltrated) == [(0, 0)]

    def test_root_payload_side32(self):
        result = execute_round(make_spec(32), charge_compute=False)
        assert result.root_payload == 1024

    def test_message_count_matches_tree(self):
        # 3 external messages per group: 4 groups at level 1 + 1 at level 2
        result = execute_round(make_spec(4))
        assert result.messages == 15

    def test_events_processed(self):
        result = execute_round(make_spec(4))
        # 16 starts + 15 deliveries
        assert result.events == 31

    def test_energy_without_compute(self):
        result = execute_round(make_spec(4), charge_compute=False)
        assert result.ledger.total == 48.0
        assert result.hop_units == 24.0

    def test_latency_without_compute(self):
        result = execute_round(make_spec(4), charge_compute=False)
        assert result.latency == 6.0  # 2 * (side - 1)

    def test_compute_increases_costs(self):
        free = execute_round(make_spec(4), charge_compute=False)
        charged = execute_round(make_spec(4), charge_compute=True)
        assert charged.ledger.total > free.ledger.total
        assert charged.latency >= free.latency

    def test_trivial_grid(self):
        result = execute_round(make_spec(1))
        assert result.root_payload == 1
        assert result.messages == 0

    def test_2x2_grid(self):
        result = execute_round(make_spec(2), charge_compute=False)
        assert result.root_payload == 4
        assert result.messages == 3
        assert result.latency == 2.0


class TestPartialReduction:
    def test_level1_storage(self):
        result = execute_round(make_spec(4, max_level=1))
        assert len(result.exfiltrated) == 4
        assert set(result.exfiltrated) == {(0, 0), (2, 0), (0, 2), (2, 2)}
        assert all(v == 4 for v in result.exfiltrated.values())

    def test_level0_no_messages(self):
        result = execute_round(make_spec(4, max_level=0))
        assert len(result.exfiltrated) == 16
        assert result.messages == 0

    def test_root_payload_raises_on_multiple(self):
        result = execute_round(make_spec(4, max_level=1))
        with pytest.raises(ValueError):
            result.root_payload


class TestCostModelInteraction:
    def test_scaled_energy(self):
        cm = UniformCostModel(energy_per_unit=3.0)
        result = execute_round(make_spec(4), cost_model=cm, charge_compute=False)
        assert result.ledger.total == 3 * 48.0

    def test_bandwidth_scales_latency(self):
        cm = UniformCostModel(bandwidth=2.0)
        result = execute_round(make_spec(4), cost_model=cm, charge_compute=False)
        assert result.latency == 3.0

    def test_ledger_charges_relays(self):
        # message from (2,0) to (0,0) relays through (1,0)
        result = execute_round(make_spec(4), charge_compute=False)
        assert result.ledger.consumed((1, 0)) > 0

    def test_per_category_breakdown(self):
        result = execute_round(make_spec(4), charge_compute=True)
        cats = result.ledger.by_category()
        assert cats["tx"] == cats["rx"]
        assert "compute" in cats

    def test_report_shape(self):
        result = execute_round(make_spec(4), charge_compute=False)
        report = result.report()
        assert report.latency == result.latency
        assert report.total_energy == result.ledger.total
        assert 0 < report.energy_balance <= 1

    def test_executor_reusable_spec(self):
        spec = make_spec(4)
        r1 = execute_round(spec, charge_compute=False)
        r2 = execute_round(spec, charge_compute=False)
        assert r1.root_payload == r2.root_payload
        assert r1.ledger.total == r2.ledger.total


class TestDeterminism:
    def test_identical_runs(self):
        a = execute_round(make_spec(8))
        b = execute_round(make_spec(8))
        assert a.latency == b.latency
        assert a.ledger.per_node() == b.ledger.per_node()
        assert a.messages == b.messages

    def test_sum_aggregation_exact(self):
        groups = HierarchicalGroups(OrientedGrid(8))
        spec = synthesize_quadtree_program(
            groups, SumAggregation(lambda c: c[0] * 1.0)
        )
        result = execute_round(spec)
        expected = sum(x for x in range(8)) * 8.0
        assert result.root_payload == expected
