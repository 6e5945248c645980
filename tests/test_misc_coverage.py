"""Coverage of secondary paths: drop callbacks, latency-objective mapping,
a sinkless medium, report adapters, and error guards."""

from __future__ import annotations

import pytest

from repro.apps import GradientField, TopographicQueryApp
from repro.core import OrientedGrid, VirtualArchitecture
from repro.core.mapping import exhaustive_best_mapping, recursive_quadrant_mapping
from repro.core.groups import HierarchicalGroups
from repro.core.taskgraph import build_quadtree
from repro.runtime import deploy
from repro.runtime.routing import TransportEnvelope
from repro.simulator import Simulator, WirelessMedium

from conftest import RecordingTransport, make_deployment


class TestExhaustiveLatencyObjective:
    def test_latency_objective_on_2x2(self):
        grid = OrientedGrid(2)
        tg = build_quadtree(grid)
        best = exhaustive_best_mapping(tg, grid, objective="latency")
        _, latency = best.communication_cost()
        paper = recursive_quadrant_mapping(tg, HierarchicalGroups(grid))
        _, paper_latency = paper.communication_cost()
        assert latency <= paper_latency


class TestExecutionToReport:
    def test_custom_executor_report(self):
        va = VirtualArchitecture(8)
        app = TopographicQueryApp(va, GradientField(), threshold=0.5)
        raw = va.execute(app.aggregation)
        report = app.execution_to_report(raw)
        assert report.correct


class TestTransportDropCallback:
    def test_on_drop_invoked(self):
        net = make_deployment(side=4, seed=7)
        stack = deploy(net)
        log = []

        sim = Simulator()
        medium = WirelessMedium(sim, net)
        proc = RecordingTransport([], log, stack.topology, stack.binding)
        proc.sim = sim
        proc.medium = medium
        # install on a node at the west edge and ask it to go further west
        west_node = next(
            nid for nid in net.node_ids() if net.cell_of(nid) == (0, 0)
        )
        proc.node_id = west_node
        proc.originate((-1, 0), inner="x")  # off-grid: no routing entry
        assert proc.drops == 1
        assert "no routing entry" in log[0][2]

    def test_envelope_defaults(self):
        env = TransportEnvelope(src_cell=(0, 0), dst_cell=(1, 1), inner="p")
        assert env.hops == 0
        assert env.size_units == 1.0


class TestMediumDetach:
    def test_detach_stops_delivery(self):
        """A ``None`` sink absorbs deliveries; the receiver still pays."""
        net = make_deployment(side=4, seed=7)
        sim = Simulator()
        medium = WirelessMedium(sim, net)
        got = []
        src = net.node_ids()[0]
        nbr = net.neighbors(src)[0]
        medium.receive = lambda nid, pkt: got.append((nid, pkt))
        medium.unicast(src, nbr, "k", None)
        sim.run()
        assert [nid for nid, _ in got] == [nbr]
        medium.receive = None
        spent = net.node(nbr).consumed_energy
        medium.unicast(src, nbr, "k", None)
        sim.run()
        assert len(got) == 1
        assert net.node(nbr).consumed_energy == spent + 1.0
        assert medium.stats.deliveries == 2


class TestStackGuards:
    def test_run_application_caps_events(self):
        from repro.core import CountAggregation

        net = make_deployment(side=4, seed=7)
        stack = deploy(net)
        va = VirtualArchitecture(4)
        spec = va.synthesize(CountAggregation(lambda c: True))
        # tiny budget: the run is cut off but returns cleanly
        run = stack.run_application(spec, max_events=5)
        assert run.exfiltrated == {}

    def test_setup_report_properties(self):
        net = make_deployment(side=4, seed=7)
        stack = deploy(net)
        assert stack.setup.total_energy == pytest.approx(
            stack.setup.emulation.energy + stack.setup.binding.energy
        )
