"""Unit tests for the VirtualArchitecture facade."""

from __future__ import annotations


from repro.core import (
    CenterLeaderPolicy,
    CountAggregation,
    UniformCostModel,
    VirtualArchitecture,
)


class TestFacade:
    def test_basic_properties(self, va4):
        assert va4.side == 4
        assert va4.num_nodes == 16
        assert va4.groups.max_level == 2

    def test_repr(self, va4):
        text = repr(va4)
        assert "4x4" in text and "UniformCostModel" in text

    def test_design_environment_fresh(self, va4):
        env1 = va4.design_environment()
        env2 = va4.design_environment()
        env1.send((0, 0), (1, 0), payload=None)
        assert env2.ledger.total == 0.0
        assert env1.groups is va4.groups

    def test_synthesize_defaults_to_full_reduction(self, va4):
        spec = va4.synthesize(CountAggregation(lambda c: True))
        assert spec.max_level == 2

    def test_execute_roundtrip(self, va4):
        result = va4.execute(CountAggregation(lambda c: c[0] == 0))
        assert result.root_payload == 4

    def test_execute_with_custom_cost_model(self):
        va = VirtualArchitecture(4, cost_model=UniformCostModel(energy_per_unit=10.0))
        result = va.execute(CountAggregation(lambda c: True), charge_compute=False)
        assert result.ledger.total == 480.0

    def test_custom_policy_propagates(self):
        va = VirtualArchitecture(4, leader_policy=CenterLeaderPolicy())
        result = va.execute(CountAggregation(lambda c: True))
        # center policy roots the reduction at (1, 1)
        assert list(result.exfiltrated) == [(1, 1)]
        assert result.root_payload == 16

    def test_non_power_of_two_rejected_at_synthesis(self):
        va = VirtualArchitecture(6)
        assert va.num_nodes == 36  # construction is fine
        spec = va.synthesize(CountAggregation(lambda c: True))
        # 6x6 supports a 2-level hierarchy; execution still reduces
        assert spec.max_level == va.groups.max_level
