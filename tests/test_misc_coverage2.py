"""Second edge-case sweep: corrupted-structure guards, deployed
event-driven rounds, report error paths, and a larger-scale stack run."""

from __future__ import annotations

import pytest

from repro.core import (
    CountAggregation,
    EventDrivenAggregation,
    VirtualArchitecture,
    simulate_event_activations,
)
from repro.core.coords import ALL_DIRECTIONS, Direction
from repro.runtime import deploy
from repro.runtime.binding import Binding
from repro.runtime.topology_emulation import EmulatedTopology

from conftest import make_deployment


class TestCorruptedStructureGuards:
    def test_gateway_chain_detects_cycle(self):
        net = make_deployment(side=4, seed=7)
        # hand-build a cyclic table between two same-cell nodes
        members = next(
            net.members_of_cell(c)
            for c in net.cells.cells()
            if len(net.members_of_cell(c)) >= 2
        )
        a, b = members[0], members[1]
        tables = {nid: (None,) * 4 for nid in net.node_ids()}
        tables[a] = tuple(b if d is Direction.EAST else None for d in ALL_DIRECTIONS)
        tables[b] = tuple(a if d is Direction.EAST else None for d in ALL_DIRECTIONS)
        topo = EmulatedTopology(net, tables)
        with pytest.raises(RuntimeError, match="cycle"):
            topo.gateway_chain(a, Direction.EAST)

    def test_gateway_chain_detects_stray(self):
        net = make_deployment(side=4, seed=7)
        # point "NORTH" at a node in the wrong (eastern) cell
        a = net.members_of_cell((1, 1))[0]
        wrong = net.members_of_cell((2, 1))[0]
        tables = {nid: (None,) * 4 for nid in net.node_ids()}
        tables[a] = tuple(
            wrong if d is Direction.NORTH else None for d in ALL_DIRECTIONS
        )
        topo = EmulatedTopology(net, tables)
        with pytest.raises(RuntimeError, match="strayed"):
            topo.gateway_chain(a, Direction.NORTH)

    def test_binding_gradient_cycle_detected(self):
        net = make_deployment(side=4, seed=7)
        members = next(
            net.members_of_cell(c)
            for c in net.cells.cells()
            if len(net.members_of_cell(c)) >= 3
        )
        a, b, leader = members[0], members[1], members[2]
        binding = Binding(
            network=net,
            leaders={net.cell_of(leader): leader},
            toward_leader={a: b, b: a},
        )
        with pytest.raises(RuntimeError, match="cycle"):
            binding.path_to_leader(a)

    def test_binding_missing_pointer_detected(self):
        net = make_deployment(side=4, seed=7)
        members = next(
            net.members_of_cell(c)
            for c in net.cells.cells()
            if len(net.members_of_cell(c)) >= 2
        )
        a, leader = members[0], members[1]
        binding = Binding(
            network=net,
            leaders={net.cell_of(leader): leader},
            toward_leader={},
        )
        with pytest.raises(RuntimeError, match="no gradient pointer"):
            binding.path_to_leader(a)


class TestDeployedEventDriven:
    def test_tracking_round_on_physical_stack(self):
        net = make_deployment(side=4, seed=11)
        stack = deploy(net)
        va = VirtualArchitecture(4)
        active = simulate_event_activations(4, n_events=1, vicinity_radius=1.2, rng=3)
        agg = EventDrivenAggregation(
            CountAggregation(lambda c: True), active=lambda c: c in active
        )
        run = stack.run_application(va.synthesize(agg))
        assert run.root_payload == (len(active) if active else None)

    def test_silent_round_cheapest(self):
        net = make_deployment(side=4, seed=11)
        stack = deploy(net)
        va = VirtualArchitecture(4)
        silent = EventDrivenAggregation(
            CountAggregation(lambda c: True), active=lambda c: False
        )
        loud = CountAggregation(lambda c: True)
        silent_run = stack.run_application(va.synthesize(silent))
        loud_run = stack.run_application(va.synthesize(loud))
        # size-0 payloads still traverse the transport, but cost nothing
        assert silent_run.ledger.total < loud_run.ledger.total


class TestReportErrorPaths:
    def test_partial_reduction_rejected_by_app_report(self):
        from repro.apps import GradientField, TopographicQueryApp

        va = VirtualArchitecture(8)
        app = TopographicQueryApp(va, GradientField(), threshold=0.5)
        result = va.execute(app.aggregation, max_level=1)
        with pytest.raises(ValueError, match="exactly one"):
            app.execution_to_report(result)

    def test_wrong_payload_type_rejected(self):
        from repro.apps import GradientField, TopographicQueryApp

        va = VirtualArchitecture(4)
        app = TopographicQueryApp(va, GradientField(), threshold=0.5)
        bogus = va.execute(CountAggregation(lambda c: True))
        with pytest.raises(TypeError):
            app.execution_to_report(bogus)


class TestLargerScaleStack:
    def test_8x8_deployed_round_trip(self):
        from repro.apps import (
            count_regions,
            feature_matrix_aggregation,
            random_feature_matrix,
        )

        net = make_deployment(side=8, n_random=420, seed=11)
        assert net.validate_protocol_preconditions() == []
        stack = deploy(net)
        va = VirtualArchitecture(8)
        feat = random_feature_matrix(8, 0.4, rng=5)
        run = stack.run_application(va.synthesize(feature_matrix_aggregation(feat)))
        assert run.root_payload.total_regions() == count_regions(feat)
        assert run.drops == 0
