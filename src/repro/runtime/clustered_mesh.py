"""Clustered-mesh topology infrastructure: the paper's cited alternative.

Section 3.2: *"Other topology creation and maintenance algorithms such as
the one proposed in [17] can also be employed"* — [17] being Singh, Pathak
& Prasanna's *clustered mesh* construction.  This module implements a
faithful analogue so the two strategies can be compared (experiment E4+):

1. cluster heads are the bound cell leaders (from the Section 5.2
   election);
2. each head floods an advertisement through its own cell; border nodes
   carry it one cell over, where it is forwarded along the destination
   cell's ``toward_leader`` gradient;
3. every head thereby learns an explicit node-level route to each
   adjacent head, forming a **leader-level mesh** over the cell grid.

Unlike the cell-based routing tables of Section 5.1 (any node can forward
in any direction), the mesh concentrates transport through the heads:
simpler state (routes live only at heads) at the cost of longer paths and
head hot-spotting — the trade the comparison quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.coords import ALL_DIRECTIONS, GridCoord
from ..core.cost_model import CostModel
from ..deployment.topology import RealNetwork
from ..simulator.network import Packet
from ..simulator.process import Process
from .binding import Binding
from .topology_emulation import _run_setup

#: Packet kind used by the mesh construction.
ADV_KIND = "mesh-adv"

#: Data units of one head advertisement.
ADV_SIZE_UNITS = 1.0


class _MeshProcess(Process):
    """Per-node advertisement flooding / forwarding logic."""

    def __init__(self, binding: Binding):
        super().__init__()
        self.binding = binding
        self.seen: Set[GridCoord] = set()  # origin cells already relayed
        self.routes: Dict[GridCoord, List[int]] = {}  # at heads only

    @property
    def my_cell(self) -> GridCoord:
        return self.medium.network.cell_of(self.node_id)

    def on_start(self) -> None:
        if self.binding.is_leader(self.node_id):
            self.seen.add(self.my_cell)
            self.broadcast(ADV_KIND, (self.my_cell, [self.node_id]), ADV_SIZE_UNITS)

    def on_packet(self, packet: Packet) -> None:
        if packet.kind != ADV_KIND:
            return
        origin_cell, path = packet.payload
        my_cell = self.my_cell
        if my_cell == origin_cell:
            # intra-cell flood: relay once per origin
            if origin_cell in self.seen:
                return
            self.seen.add(origin_cell)
            self.broadcast(
                ADV_KIND, (origin_cell, path + [self.node_id]), ADV_SIZE_UNITS
            )
            return
        # one cell beyond the origin: deliver toward our head, then stop
        if not _cells_adjacent(my_cell, origin_cell):
            return
        if self.node_id in path:
            return
        new_path = path + [self.node_id]
        if self.binding.is_leader(self.node_id):
            # first advertisement wins (shortest in flood order)
            if origin_cell not in self.routes:
                self.routes[origin_cell] = list(reversed(new_path))
            return
        nxt = self.binding.toward_leader.get(self.node_id)
        if nxt is not None and nxt not in path:
            self.unicast(nxt, ADV_KIND, (origin_cell, new_path), ADV_SIZE_UNITS)


def _cells_adjacent(a: GridCoord, b: GridCoord) -> bool:
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


@dataclass
class LeaderMesh:
    """The converged mesh: explicit head-to-head routes per adjacency.

    ``routes[(src_cell, dst_cell)]`` is the node-id path from the head of
    ``src_cell`` to the head of ``dst_cell`` (endpoints inclusive), for
    every adjacent cell pair that converged.
    """

    network: RealNetwork
    binding: Binding
    routes: Dict[Tuple[GridCoord, GridCoord], List[int]]

    def route(self, src_cell: GridCoord, dst_cell: GridCoord) -> List[int]:
        """The stored head-to-head route (raises ``KeyError`` if absent)."""
        return list(self.routes[(src_cell, dst_cell)])

    def verify(self) -> List[str]:
        """Structural checks: every adjacent covered cell pair has a
        route whose hops are radio links and whose endpoints are the two
        heads."""
        problems: List[str] = []
        cells = [
            c
            for c in self.network.cells.cells()
            if c in self.binding.leaders
        ]
        cell_set = set(cells)
        for cell in cells:
            for d in ALL_DIRECTIONS:
                nbr = d.step(cell)
                if nbr not in cell_set:
                    continue
                key = (cell, nbr)
                if key not in self.routes:
                    problems.append(f"missing route {cell} -> {nbr}")
                    continue
                path = self.routes[key]
                if path[0] != self.binding.leader_of(cell):
                    problems.append(f"route {key} does not start at the head")
                if path[-1] != self.binding.leader_of(nbr):
                    problems.append(f"route {key} does not end at the head")
                for a, b in zip(path, path[1:]):
                    if b not in self.network.neighbors(a, alive_only=False):
                        problems.append(
                            f"route {key}: {a}->{b} is not a radio link"
                        )
        return problems

    def mean_route_length(self) -> float:
        """Average hop count of the stored head-to-head routes."""
        if not self.routes:
            return 0.0
        return sum(len(p) - 1 for p in self.routes.values()) / len(self.routes)


@dataclass
class MeshResult:
    """Construction outcome: the mesh plus protocol costs."""

    mesh: LeaderMesh
    setup_time: float
    messages: int
    energy: float


def build_leader_mesh(
    network: RealNetwork,
    binding: Binding,
    cost_model: Optional[CostModel] = None,
) -> MeshResult:
    """Run the mesh-construction protocol to convergence."""
    processes, setup_time, messages, energy = _run_setup(
        network, cost_model, lambda nid: _MeshProcess(binding)
    )
    routes: Dict[Tuple[GridCoord, GridCoord], List[int]] = {}
    for nid, proc in processes.items():
        assert isinstance(proc, _MeshProcess)
        if not proc.routes:
            continue
        my_cell = network.cell_of(nid)
        for origin_cell, path in proc.routes.items():
            # stored reversed: head(my_cell) ... head(origin_cell)?  The
            # advertisement travelled origin-head -> ... -> my head; the
            # reversed path is my-head -> origin-head.
            routes[(my_cell, origin_cell)] = path
    return MeshResult(
        mesh=LeaderMesh(network=network, binding=binding, routes=routes),
        setup_time=setup_time,
        messages=messages,
        energy=energy,
    )
