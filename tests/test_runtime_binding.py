"""Unit tests for the Section 5.2 process-binding (leader election)."""

from __future__ import annotations

import pytest

from repro.core import CountAggregation, VirtualArchitecture
from repro.deployment import covered_deployment
from repro.runtime import deploy, rotate_leaders
from repro.runtime.binding import (
    bind_processes,
    distance_to_center_metric,
    oracle_binding,
    residual_energy_metric,
)

from conftest import make_deployment


@pytest.fixture(scope="module")
def bound4():
    net = make_deployment(side=4)
    return net, bind_processes(net)


class TestElection:
    def test_exactly_one_leader_per_cell(self, bound4):
        net, result = bound4
        assert set(result.binding.leaders) == set(net.cells.cells())

    def test_verify_clean(self, bound4):
        _, result = bound4
        assert result.binding.verify() == []

    def test_leader_is_closest_to_center(self, bound4):
        net, result = bound4
        for cell, leader in result.binding.leaders.items():
            best = min(
                net.members_of_cell(cell),
                key=lambda m: (distance_to_center_metric(net, m), m),
            )
            assert leader == best

    def test_leader_in_own_cell(self, bound4):
        net, result = bound4
        for cell, leader in result.binding.leaders.items():
            assert net.cell_of(leader) == cell

    def test_is_leader_predicate(self, bound4):
        net, result = bound4
        leaders = set(result.binding.leaders.values())
        for nid in net.node_ids():
            assert result.binding.is_leader(nid) == (nid in leaders)

    def test_deterministic(self):
        net1 = make_deployment(side=4, seed=17)
        net2 = make_deployment(side=4, seed=17)
        r1 = bind_processes(net1)
        r2 = bind_processes(net2)
        assert r1.binding.leaders == r2.binding.leaders


class TestGradient:
    def test_every_member_reaches_leader(self, bound4):
        net, result = bound4
        for nid in net.node_ids():
            path = result.binding.path_to_leader(nid)
            assert path[0] == nid
            assert result.binding.is_leader(path[-1])
            # gradient stays within the cell
            cell = net.cell_of(nid)
            assert all(net.cell_of(p) == cell for p in path)

    def test_leader_path_is_self(self, bound4):
        _, result = bound4
        for leader in result.binding.leaders.values():
            assert result.binding.path_to_leader(leader) == [leader]

    def test_gradient_hops_are_radio_links(self, bound4):
        net, result = bound4
        for nid in net.node_ids():
            path = result.binding.path_to_leader(nid)
            for a, b in zip(path, path[1:]):
                assert b in net.neighbors(a)


class TestMetrics:
    def test_residual_energy_metric(self):
        net = make_deployment(side=4, seed=19)
        # give one node in cell (0,0) a distinctly fuller battery
        members = net.members_of_cell((0, 0))
        for nid in members:
            net.node(nid).draw(10.0)
        champion = members[-1]
        net.node(champion).revive(energy=1e9)
        result = bind_processes(net, metric=residual_energy_metric)
        assert result.binding.leaders[(0, 0)] == champion

    def test_binding_records_its_metric(self):
        """A healing failover elects by the metric the binding records."""
        net = make_deployment(side=4, seed=19)
        assert bind_processes(net).binding.metric is distance_to_center_metric
        rotated = bind_processes(net, metric=residual_energy_metric)
        assert rotated.binding.metric is residual_energy_metric

    def test_verify_uses_the_election_metric_and_values(self):
        """A rotated binding verifies against its own metric, at the values
        the election compared: the flood's own messages drain the
        batteries, so re-reading residual energy afterwards names other
        leaders."""
        net = covered_deployment(4, 150, 3)
        deploy(net).run_application(
            VirtualArchitecture(4).synthesize(CountAggregation(lambda c: True))
        )
        rotated = rotate_leaders(net).binding
        assert rotated.verify() == []
        assert rotated.leaders != oracle_binding(net, distance_to_center_metric)
        assert rotated.leaders != oracle_binding(net, residual_energy_metric)

    def test_oracle_binding_matches_protocol(self):
        net = make_deployment(side=4, seed=23)
        result = bind_processes(net)
        assert result.binding.leaders == oracle_binding(net)

    def test_custom_metric_tie_break_by_id(self):
        net = make_deployment(side=4, seed=29)
        result = bind_processes(net, metric=lambda n, nid: 0.0)
        for cell, leader in result.binding.leaders.items():
            assert leader == min(net.members_of_cell(cell))


class TestCosts:
    def test_setup_costs_positive(self, bound4):
        _, result = bound4
        assert result.messages > 0
        assert result.energy > 0
        assert result.setup_time > 0

    def test_at_least_one_message_per_node(self, bound4):
        net, result = bound4
        assert result.messages >= len(net)


class TestMultiHopCells:
    def test_election_with_multi_hop_cells(self):
        # short range: the min-flood needs several hops to cover a cell
        net = make_deployment(side=4, n_random=300, range_cells=0.7, seed=5)
        assert net.validate_protocol_preconditions() == []
        result = bind_processes(net)
        assert result.binding.verify() == []
        # flooding took more than one time unit
        assert result.setup_time > 1.0
