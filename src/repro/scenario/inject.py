"""Arming a :class:`Scenario` on a live harness (DESIGN.md §14).

The :class:`ScenarioInjector` is the scenario twin of
:class:`~repro.runtime.faults.FaultInjector`: it installs the link-model
gate and attacker tap on the medium, and schedules every mobility move
and source emission as a fire-and-forget simulator timer *before* the run
starts — pre-run ``now == 0``, so relative delay equals absolute fire
time and every scenario event occupies a deterministic position in the
event order without consuming medium RNG draws.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..core.coords import GridCoord
from ..core.program import Message
from .link import LinkGate
from .mobility import Move
from .spec import Scenario, ScenarioReport

if TYPE_CHECKING:  # pragma: no cover
    from ..deployment.topology import RealNetwork
    from ..runtime.binding import Binding
    from ..simulator.engine import Simulator
    from ..simulator.network import WirelessMedium
    from ..simulator.process import ProcessHost


class ScenarioInjector:
    """Arms one scenario on one simulator/medium/stack harness."""

    def __init__(
        self,
        scenario: Scenario,
        network: "RealNetwork",
        binding: "Binding",
        host: "ProcessHost",
        report: ScenarioReport,
    ):
        self.scenario = scenario
        self.network = network
        self.binding = binding
        self.host = host
        self.report = report
        self._gate: Optional[LinkGate] = None
        self._medium: "Optional[WirelessMedium]" = None
        # pursuit endpoints, resolved at arm time (the initial election's
        # leaders, before any failover or move re-binds a cell)
        self.start_node: Optional[int] = None
        self.source_nodes: Tuple[int, ...] = ()

    def arm(self, sim: "Simulator", medium: "WirelessMedium") -> None:
        """Install gates/taps and schedule every timed event; call after
        processes boot, before the run."""
        self._medium = medium
        scn = self.scenario
        if scn.link is not None:
            gate = scn.link.build_gate(self.network)
            if gate is not None:
                medium.link_gate = gate
                self._gate = gate
        if scn.attacker is not None:
            medium.tap_kinds = frozenset(scn.attacker.listen_kinds)
            medium.delivery_log = []
            leaders = self.binding.leaders
            self.start_node = leaders.get(scn.attacker.start_cell)
            self.source_nodes = tuple(
                sorted(
                    {
                        leaders[c]
                        for c in scn.attacker.source_cells
                        if leaders.get(c) is not None
                    }
                )
            )
        if scn.mobility:
            for move in scn.mobility.moves:
                # pre-run now == 0, so relative delay == absolute fire time
                sim.schedule(move.time, self._fire_move, move)
        if scn.sources is not None:
            for time, cell, k in scn.sources.events():
                sim.schedule(time, self._fire_source, cell, k)

    # -- event execution ---------------------------------------------------------

    def _fire_move(self, move: Move) -> None:
        position = (
            move.position
            if move.position is not None
            else self.network.cells.center(move.cell)
        )
        old_cell, new_cell = self.network.move_node(move.node, position)
        # the node's cached route toward its (possibly new) leader is
        # stale; healing rebuilds it on demand via the repair path
        self.binding.toward_leader[move.node] = None
        self.report.relocations.append((move.time, move.node, old_cell, new_cell))

    def _fire_source(self, cell: GridCoord, k: int) -> None:
        scn = self.scenario
        assert scn.sources is not None
        leader = self.binding.leaders.get(cell)
        proc = None if leader is None else self.host.processes.get(leader)
        if leader is None or proc is None or not self.network.node(leader).alive:
            self.report.source_skipped += 1
            return
        inner = Message(
            kind=scn.sources.kind,
            sender=cell,
            payload=(cell, k),
            size_units=scn.sources.size_units,
        )
        proc.originate(scn.sources.dst_cell, inner, size_units=scn.sources.size_units)
        self.report.source_emissions += 1

    # -- post-run ----------------------------------------------------------------

    def delivery_log(self) -> List[Tuple[float, int, int]]:
        """The tap in canonical ``(time, src, receiver)`` order."""
        if self._medium is None or self._medium.delivery_log is None:
            return []
        return sorted(self._medium.delivery_log)

    def finalize(self) -> None:
        """Fold gate counters into the report and run the pursuit."""
        if self._gate is not None:
            self.report.link_faded = self._gate.faded
        scn = self.scenario
        if scn.attacker is not None:
            self.report.attacker = scn.attacker.pursue(
                self.delivery_log(), self.start_node, self.source_nodes, self.network
            )
