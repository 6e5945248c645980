"""Cell-based topology emulation protocol (Section 5.1).

Emulates the virtual grid ``G_V`` on the arbitrary deployment ``G_R``:

1. Localization and neighbour discovery are assumed done; every node
   computes its cell ``CELL(v_i)`` and knows its one-hop neighbours.
2. Each node fills its routing table ``RT: {N, S, E, W} -> node | NULL``
   with a direct neighbour lying in the adjacent cell, if any.
3. Each node broadcasts its routing table.  *"When a node v_j receives a
   message from some v_i where CELL(v_i) != CELL(v_j), the message is
   ignored"* — cross-boundary suppression, property (ii).  Otherwise, for
   every direction where ``v_i`` has an entry and ``v_j`` has NULL,
   ``v_j`` routes via ``v_i`` and rebroadcasts its updated table.

On convergence, following ``RT[d]`` pointers from any node leads (through
same-cell relays) to a node with a direct link into the adjacent cell in
direction ``d`` — the multi-hop paths of the paper.  The fill-only-NULL
rule makes the via-graph a DAG rooted at boundary nodes, so chains always
terminate; :meth:`EmulatedTopology.gateway_chain` materializes them.

The module also provides :func:`oracle_reachable_directions` — a
centralized computation of which (node, direction) pairs are satisfiable
at all — used by the tests to show the protocol achieves exactly the
possible entries, and by experiment E4 to report the efficiency properties
(i)–(iii).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.coords import ALL_DIRECTIONS, Direction, GridCoord
from ..core.cost_model import CostModel
from ..deployment.topology import RealNetwork
from ..simulator.engine import Simulator
from ..simulator.network import Packet, WirelessMedium
from ..simulator.process import Process, ProcessHost

#: Packet kind used by the protocol.
RT_KIND = "rt"

#: Data units of one routing-table announcement.
RT_SIZE_UNITS = 1.0


def _run_setup(
    network: RealNetwork,
    cost_model: Optional[CostModel],
    factory: Callable[[int], Process],
) -> Tuple[Dict[int, Process], float, int, float]:
    """Run one setup protocol to quiescence: ``factory(node_id)`` on every
    alive node of a fresh lossless world, booted together at t = 0.

    Returns the processes (for their converged state), the quiescence
    time, the transmissions and the energy drawn.  The world is torn down
    before returning, which breaks the medium -> sink -> host -> process
    -> medium cycles so it is freed without a full collection.
    """
    sim = Simulator()
    medium = WirelessMedium(sim, network, cost_model=cost_model)
    host = ProcessHost(sim, medium)
    try:
        host.add_all(factory)
        host.start()
        sim.run_until_quiet()
    finally:
        host.teardown()
    return host.processes, sim.now, medium.stats.transmissions, medium.ledger.total


class TopologyEmulationProcess(Process):
    """The per-node protocol logic.

    ``rt`` holds ``RT`` by direction ordinal (:data:`ALL_DIRECTIONS`
    order), and ``filled`` its non-NULL entries as a 4-bit mask, which is
    what an announcement carries.
    """

    def __init__(self) -> None:
        super().__init__()
        self.cell: GridCoord = (-1, -1)
        self.rt: List[Optional[int]] = [None] * len(ALL_DIRECTIONS)
        self.filled = 0
        self.rebroadcasts = 0

    # -- protocol ------------------------------------------------------------

    def on_start(self) -> None:
        net = self.medium.network
        self.cell = cell = net.cell_of(self.node_id)
        # Step 2: direct entries from initially available information.
        # One pass over the sorted alive neighbours against the network's
        # cell map: the first hit in an adjacent cell is its lowest id, the
        # deterministic tie-break.
        adjacent = {d.step(cell): d.ordinal for d in ALL_DIRECTIONS}
        cell_map = net.cell_map
        rt, filled = self.rt, 0
        for nbr in net.neighbors(self.node_id):
            o = adjacent.get(cell_map[nbr])
            if o is not None and rt[o] is None:
                rt[o] = nbr
                filled |= 1 << o
        self.filled = filled
        # Step 3: announce.
        self.broadcast(RT_KIND, (cell, filled), RT_SIZE_UNITS)

    def on_packet(self, packet: Packet) -> None:
        if packet.kind != RT_KIND:
            return
        sender_cell, filled = packet.payload
        if sender_cell != self.cell:
            return  # suppression at the cell boundary (property ii)
        gained = filled & ~self.filled
        if gained:
            for o in range(len(ALL_DIRECTIONS)):
                if gained >> o & 1:
                    self.rt[o] = packet.src
            self.filled |= gained
            self.rebroadcasts += 1
            self.broadcast(RT_KIND, (self.cell, self.filled), RT_SIZE_UNITS)


@dataclass
class EmulationResult:
    """Outcome of one protocol run.

    Attributes
    ----------
    topology:
        The converged routing structure (query via
        :class:`EmulatedTopology`).
    setup_time:
        Simulation time at quiescence — property (iii) predicts it is
        proportional to the maximum intra-cell path length.
    messages:
        Radio transmissions used by the protocol.
    energy:
        Total energy drawn during setup.
    """

    topology: "EmulatedTopology"
    setup_time: float
    messages: int
    energy: float


class EmulatedTopology:
    """The converged product of the protocol: per-node routing tables.

    ``tables[node]`` is the node's ``RT`` as a tuple in
    :data:`ALL_DIRECTIONS` order, indexed by ``Direction.ordinal``: ints
    and None only, which the garbage collector stops tracking.  Provides
    the forwarding queries the transport layer and the tests need.  The
    tables are immutable in normal operation; the only mutation path is
    :meth:`repair`, the self-healing transport's on-demand rebuild around
    dead nodes, which replaces a node's tuple.
    """

    def __init__(
        self, network: RealNetwork, tables: Dict[int, Tuple[Optional[int], ...]]
    ):
        self.network = network
        self.tables = tables
        # liveness generation at the last repair of each (cell, direction
        # ordinal); throttles on-demand repairs to one per churn event
        self._repair_generation: Dict[Tuple[GridCoord, int], int] = {}

    def entry(self, node_id: int, direction: Direction) -> Optional[int]:
        """``RT_{node}[direction]``."""
        return self.tables[node_id][direction.ordinal]

    def gateway_chain(
        self, node_id: int, direction: Direction
    ) -> Optional[List[int]]:
        """Follow ``RT[direction]`` pointers from ``node_id`` until the
        chain crosses into the adjacent cell.

        Returns the node-id path (starting at ``node_id``, ending at the
        first node inside the adjacent cell), or None if the table has no
        entry.  Raises :class:`RuntimeError` on a cycle — which the
        fill-only-NULL protocol can never produce; the check guards
        against hand-edited tables.
        """
        net = self.network
        start_cell = net.cell_of(node_id)
        target_cell = direction.step(start_cell)
        o = direction.ordinal
        path = [node_id]
        seen = {node_id}
        current = node_id
        while True:
            nxt = self.tables[current][o]
            if nxt is None:
                return None
            if nxt in seen:
                raise RuntimeError(
                    f"routing cycle at node {nxt} for direction {direction}"
                )
            seen.add(nxt)
            path.append(nxt)
            if net.cell_of(nxt) == target_cell:
                return path
            if net.cell_of(nxt) != start_cell:
                raise RuntimeError(
                    f"chain from {node_id} {direction.name} strayed into "
                    f"{net.cell_of(nxt)}"
                )
            current = nxt

    def repair(self, cell: GridCoord, direction: Direction) -> bool:
        """Rebuild ``RT[direction]`` for ``cell``'s alive members around
        dead nodes.

        Centralized stand-in for periodically re-running the emulation
        protocol, invoked on demand by the self-healing transport when a
        gateway-chain hop is found dead.  Mirrors the oracle construction:
        seeds are alive members with an alive one-hop neighbour in the
        adjacent cell (entry = lowest-id such neighbour, the protocol's
        own tie-break), then BFS inward with sorted iteration so the
        rebuilt chains are a pure function of the liveness state.
        Unreachable members get ``None``.  Returns True iff any entry
        changed; throttled per liveness generation.
        """
        net = self.network
        o = direction.ordinal
        key = (cell, o)
        gen = net.liveness_generation
        if self._repair_generation.get(key) == gen:
            return False
        self._repair_generation[key] = gen
        target = direction.step(cell)
        if not net.cells.contains_cell(target):
            return False
        members = net.members_of_cell(cell)  # alive members only
        member_set = set(members)
        new_entry: Dict[int, Optional[int]] = {}
        seeds: List[int] = []
        for m in members:
            cross = [n for n in net.neighbors(m) if net.cell_of(n) == target]
            if cross:
                new_entry[m] = min(cross)
                seeds.append(m)
        frontier = sorted(seeds)
        reached = set(frontier)
        while frontier:
            nxt: List[int] = []
            for u in frontier:
                for v in sorted(net.neighbors(u)):
                    if v in member_set and v not in reached:
                        reached.add(v)
                        new_entry[v] = u
                        nxt.append(v)
            frontier = nxt
        tables = self.tables
        changed = False
        for m in members:
            new, row = new_entry.get(m), tables[m]
            if row[o] != new:
                tables[m] = row[:o] + (new,) + row[o + 1:]
                changed = True
        return changed

    def verify(self) -> List[str]:
        """Check the converged tables against the oracle.

        Returns human-readable problems (empty list = the protocol filled
        every satisfiable entry and every chain terminates correctly).
        """
        problems: List[str] = []
        oracle = oracle_reachable_directions(self.network)
        for node_id, table in self.tables.items():
            cell = self.network.cell_of(node_id)
            for d, entry in zip(ALL_DIRECTIONS, table):
                adjacent = d.step(cell)
                in_grid = self.network.cells.contains_cell(adjacent)
                reachable = (node_id, d) in oracle
                if entry is not None:
                    if not in_grid:
                        problems.append(
                            f"node {node_id}: entry {d.name} points off-grid"
                        )
                        continue
                    try:
                        chain = self.gateway_chain(node_id, d)
                    except RuntimeError as exc:
                        problems.append(str(exc))
                        continue
                    if chain is None:
                        problems.append(
                            f"node {node_id}: broken chain {d.name}"
                        )
                elif in_grid and reachable:
                    problems.append(
                        f"node {node_id}: missing reachable entry {d.name}"
                    )
        return problems


def oracle_reachable_directions(network: RealNetwork) -> Set[Tuple[int, Direction]]:
    """Centralized ground truth: the (node, direction) pairs for which an
    intra-cell multi-hop path to a node bordering the adjacent cell exists.

    A node can satisfy direction ``d`` iff its cell's induced subgraph
    connects it to some member with a direct link into the adjacent cell.
    """
    out: Set[Tuple[int, Direction]] = set()
    for cell in network.cells.cells():
        members = network.members_of_cell(cell)
        member_set = set(members)
        for d in ALL_DIRECTIONS:
            target = d.step(cell)
            if not network.cells.contains_cell(target):
                continue
            # seeds: members with a one-hop neighbour in the target cell
            seeds = [
                m
                for m in members
                if any(
                    network.cell_of(nbr) == target
                    for nbr in network.neighbors(m)
                )
            ]
            if not seeds:
                continue
            # intra-cell BFS from the seed set
            reached = set(seeds)
            frontier = list(seeds)
            while frontier:
                nxt: List[int] = []
                for u in frontier:
                    for v in network.neighbors(u):
                        if v in member_set and v not in reached:
                            reached.add(v)
                            nxt.append(v)
                frontier = nxt
            for m in reached:
                out.add((m, d))
    return out


def max_intra_cell_path_length(network: RealNetwork) -> int:
    """``max over cells of the eccentricity of the cell's induced subgraph``
    — the quantity property (iii) says bounds the setup latency."""
    worst = 0
    for cell in network.cells.cells():
        members = network.members_of_cell(cell)
        member_set = set(members)
        for src in members:
            # BFS depth within the cell
            depth = {src: 0}
            frontier = [src]
            while frontier:
                nxt: List[int] = []
                for u in frontier:
                    for v in network.neighbors(u):
                        if v in member_set and v not in depth:
                            depth[v] = depth[u] + 1
                            nxt.append(v)
                frontier = nxt
            worst = max(worst, max(depth.values()))
    return worst


def emulate_topology(
    network: RealNetwork, cost_model: Optional[CostModel] = None
) -> EmulationResult:
    """Run the topology-emulation protocol to convergence.

    The paper's periodic re-execution (*"since new nodes can be added ...
    the above protocol should execute periodically"*) is a fresh call:
    :func:`~repro.runtime.maintenance.recover` re-runs this after churn,
    and the tables are rebuilt from scratch each time.
    """
    processes, setup_time, messages, energy = _run_setup(
        network, cost_model, lambda nid: TopologyEmulationProcess()
    )
    tables = {
        nid: tuple(proc.rt)  # type: ignore[attr-defined]
        for nid, proc in processes.items()
    }
    return EmulationResult(
        topology=EmulatedTopology(network, tables),
        setup_time=setup_time,
        messages=messages,
        energy=energy,
    )
