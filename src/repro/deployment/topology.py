"""The real network graph ``G_R`` (Section 5.1).

*"The real network can therefore be represented by a graph G_R = (V_R,
E_R), where vertices correspond to sensor nodes, and (i, j) in E_R iff
delta(v_i, v_j) <= r, where delta is the Euclidean distance.  We assume G_R
is connected."*

:class:`RealNetwork` builds this unit-disk graph from a deployment (with a
spatially bucketed neighbour search, so construction is near-linear in the
node count for bounded density), exposes the neighbour sets the protocols
use, and provides the connectivity checks the paper's assumptions require:
global connectivity of ``G_R`` and connectivity of every cell-induced
subgraph ``Cell(v_ij)``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.coords import GridCoord
from .node import SensorNode
from .placement import ensure_coverage, uniform_random
from .terrain import CellGrid, Point, Terrain


class RealNetwork:
    """The deployed physical network: nodes, unit-disk edges, cell map.

    Parameters
    ----------
    nodes:
        The deployed :class:`SensorNode` objects (ids must be unique).
    cells:
        The cell decomposition; every node is assigned the cell containing
        its position (the paper's ``CELL`` function).
    """

    def __init__(self, nodes: Sequence[SensorNode], cells: CellGrid):
        ids = [n.node_id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be unique")
        self.nodes: Dict[int, SensorNode] = {n.node_id: n for n in nodes}
        self.cells = cells
        #: node id -> ``CELL(v_i)``; read-only, shared by every caller
        self.cell_map: Dict[int, GridCoord] = {
            n.node_id: cells.cell_of(n.position) for n in nodes
        }
        members: Dict[GridCoord, List[int]] = {}
        for nid, cell in self.cell_map.items():
            members.setdefault(cell, []).append(nid)
        self._members: Dict[GridCoord, Tuple[int, ...]] = {
            cell: tuple(sorted(ids)) for cell, ids in members.items()
        }
        # immutable adjacency: sorted tuples for ordered iteration, and a
        # mirror for O(1) membership (the unicast hot path).  The mirror is a
        # dict of int keys and None values, which the garbage collector
        # never tracks (a set always is), so full collections skip it
        self._adjacency = self._build_adjacency(nodes)
        self._adjacency_sets: Dict[int, Dict[int, None]] = {
            nid: dict.fromkeys(nbrs) for nid, nbrs in self._adjacency.items()
        }
        # alive views (neighbours, cell members) are cached per liveness
        # generation, a network-wide counter bumped whenever any node dies
        # or revives; while no node is dead they are the stored tuples
        self._liveness_gen = 0
        self._views_gen = -1
        self._alive_cache: Dict[int, Tuple[int, ...]] = {}
        self._members_cache: Dict[GridCoord, Tuple[int, ...]] = {}
        bump = self._bump_liveness_generation  # one bound method, not one per node
        for node in self.nodes.values():
            node._on_liveness_change = bump

    def _bump_liveness_generation(self) -> None:
        self._liveness_gen += 1

    @property
    def liveness_generation(self) -> int:
        """Monotone counter of node death/revival events (cache key)."""
        return self._liveness_gen

    # -- construction ------------------------------------------------------------

    @staticmethod
    def _build_adjacency(nodes: Sequence[SensorNode]) -> Dict[int, Tuple[int, ...]]:
        """Unit-disk adjacency via spatial hashing on the max range.

        One distance matrix per bucket: its members against the nodes of
        its 3x3 neighbourhood, taken in id order so that each row's hits
        come out ascending.  The tuples hold each neighbour's own
        ``node_id`` object, not an equal int from ``tolist()``: a dict
        keyed by node id (``nodes``, the ledger, a process table) then
        finds it by identity instead of by comparing values.
        """
        adjacency: Dict[int, Tuple[int, ...]] = {n.node_id: () for n in nodes}
        if len(nodes) < 2:
            return adjacency
        by_id = sorted(nodes, key=lambda n: n.node_id)
        ids = np.array([n.node_id for n in by_id], dtype=object)
        pos = np.array([n.position for n in by_id], dtype=float)
        ranges = np.array([n.tx_range for n in by_id], dtype=float)
        keys = np.floor(pos / ranges.max()).astype(np.int64).tolist()
        buckets: Dict[Tuple[int, int], List[int]] = {}
        for idx, (bx, by) in enumerate(keys):
            buckets.setdefault((bx, by), []).append(idx)
        for (bx, by), members in buckets.items():
            cand = np.array(sorted(
                j for dy in (-1, 0, 1) for dx in (-1, 0, 1)
                for j in buckets.get((bx + dx, by + dy), ())
            ))
            own = np.array(members)[:, None]
            d = np.hypot(pos[cand, 0] - pos[own, 0], pos[cand, 1] - pos[own, 1])
            # symmetric links: both radios must reach (identical nodes
            # make this the plain unit-disk condition)
            hits = (d <= np.minimum(ranges[cand], ranges[own])) & (cand != own)
            nbr_ids = ids[cand]
            for i, row in zip(members, hits):
                adjacency[ids[i]] = tuple(nbr_ids[row].tolist())
        return adjacency

    # -- basic queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> SensorNode:
        """Look up a node by id."""
        return self.nodes[node_id]

    def node_ids(self) -> List[int]:
        """All node ids, sorted."""
        return sorted(self.nodes)

    def alive_ids(self) -> List[int]:
        """Ids of nodes that are still alive."""
        return sorted(nid for nid, n in self.nodes.items() if n.alive)

    def neighbors(self, node_id: int, alive_only: bool = True) -> Tuple[int, ...]:
        """One-hop neighbour set ``N(v_i)`` (alive nodes only by default).

        Returns an immutable sorted tuple — the full view is the stored
        adjacency itself and the alive view is served from a cache keyed by
        the liveness generation, so neither copies per call.
        """
        if not alive_only:
            return self._adjacency[node_id]
        return self.alive_neighbors(node_id)

    def _start_alive_views(self) -> None:
        """Open the alive views of a new liveness generation.  While no
        node is dead (checked once, here) the caches are the stored
        adjacency and membership themselves, which hold every key a view
        is looked up by, so nothing is filtered, copied or stored."""
        self._views_gen = self._liveness_gen
        if all(n.alive for n in self.nodes.values()):
            self._alive_cache, self._members_cache = self._adjacency, self._members
        else:
            self._alive_cache, self._members_cache = {}, {}

    def alive_neighbors(self, node_id: int) -> Tuple[int, ...]:
        """Cached tuple of alive one-hop neighbours (the broadcast path)."""
        if self._views_gen != self._liveness_gen:
            self._start_alive_views()
        view = self._alive_cache.get(node_id)
        if view is None:
            nodes = self.nodes
            view = tuple(j for j in self._adjacency[node_id] if nodes[j].alive)
            self._alive_cache[node_id] = view
        return view

    def neighbor_set(self, node_id: int) -> Mapping[int, None]:
        """Full neighbour set, keyed by node id — O(1) membership (the
        unicast path).  Read-only: it is shared by every caller."""
        return self._adjacency_sets[node_id]

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between two nodes."""
        pa, pb = self.nodes[a].position, self.nodes[b].position
        return math.hypot(pa[0] - pb[0], pa[1] - pb[1])

    def cell_of(self, node_id: int) -> GridCoord:
        """The cell a node emulates (``CELL(v_i)``)."""
        return self.cell_map[node_id]

    def members_of_cell(
        self, cell: GridCoord, alive_only: bool = True
    ) -> Tuple[int, ...]:
        """``Cell(v_ij)``: the nodes that collectively emulate a grid node.

        Returns an immutable sorted tuple.  The alive view is served from
        a cache keyed by the liveness generation (exactly like
        :meth:`alive_neighbors`), so per-maintenance-round callers don't
        re-filter an unchanged membership.
        """
        members = self._members.get(cell, ())
        if not alive_only or not members:
            return members
        if self._views_gen != self._liveness_gen:
            self._start_alive_views()
        view = self._members_cache.get(cell)
        if view is None:
            nodes = self.nodes
            view = tuple(nid for nid in members if nodes[nid].alive)
            self._members_cache[cell] = view
        return view

    def intra_cell_links(
        self, node_id: int, alive_only: bool = True
    ) -> Tuple[Tuple[int, int], ...]:
        """The node's links that stay inside its own cell, sorted.

        These are the links whose loss cuts the node off from the very
        peers that could detect its failure and take over its role — the
        set a partition fault plan severs to stress in-cell failover
        (:mod:`repro.serve.chaos`) — and the complement of the
        inter-cell links the grid emulation routes over.
        """
        cell = self.cell_of(node_id)
        return tuple(
            (node_id, nbr)
            for nbr in self.neighbors(node_id, alive_only=alive_only)
            if self.cell_of(nbr) == cell
        )

    def edge_count(self) -> int:
        """Number of undirected links."""
        return sum(len(v) for v in self._adjacency.values()) // 2

    def average_degree(self) -> float:
        """Mean neighbour count — the density diagnostic."""
        if not self.nodes:
            return 0.0
        return sum(len(v) for v in self._adjacency.values()) / len(self.nodes)

    # -- connectivity (the paper's standing assumptions) ----------------------------

    def _bfs(self, start: int, allowed: Set[int]) -> Set[int]:
        """The nodes of ``allowed`` (alive ones, from every caller) that
        ``start`` reaches through ``allowed`` alone.  Each frontier is
        expanded by set operations, so no edge is tested in Python."""
        seen = {start}
        frontier = {start}
        adjacency = self._adjacency
        while frontier:
            nxt: Set[int] = set()
            for u in frontier:
                nxt.update(adjacency[u])
            nxt &= allowed
            nxt -= seen
            seen |= nxt
            frontier = nxt
        return seen

    def is_connected(self) -> bool:
        """Global connectivity of ``G_R`` over alive nodes."""
        alive = self.alive_ids()
        if len(alive) <= 1:
            return True
        return len(self._bfs(alive[0], set(alive))) == len(alive)

    def cell_subgraph_connected(self, cell: GridCoord) -> bool:
        """Connectivity of the subgraph induced by ``Cell(v_ij)``.

        Section 5.1: *"we assume that the subgraph of G_R induced by nodes
        in Cell(v_ij) is connected"* — the precondition for the intra-cell
        flooding steps of both runtime protocols.
        """
        members = self.members_of_cell(cell)
        if not members:
            return False
        if len(members) == 1:
            return True
        reached = self._bfs(members[0], set(members))
        return len(reached) == len(members)

    def all_cells_covered(self) -> bool:
        """True iff every cell holds at least one alive node."""
        return all(
            bool(self.members_of_cell(cell)) for cell in self.cells.cells()
        )

    def all_cell_subgraphs_connected(self) -> bool:
        """True iff every cell's induced subgraph is connected."""
        return all(
            self.cell_subgraph_connected(cell) for cell in self.cells.cells()
        )

    def validate_protocol_preconditions(self) -> List[str]:
        """Return a list of violated Section 5 preconditions (empty = ok)."""
        problems: List[str] = []
        if not self.all_cells_covered():
            uncovered = [
                c for c in self.cells.cells() if not self.members_of_cell(c)
            ]
            problems.append(f"{len(uncovered)} cells without alive nodes")
        else:
            broken = [
                c
                for c in self.cells.cells()
                if not self.cell_subgraph_connected(c)
            ]
            if broken:
                problems.append(
                    f"{len(broken)} cells with disconnected induced subgraphs"
                )
        if not self.is_connected():
            problems.append("G_R is not connected")
        return problems

    def shortest_hop_path(self, src: int, dst: int) -> Optional[List[int]]:
        """BFS shortest path in hops over alive nodes (None if unreachable).

        Used as the oracle against which protocol-built routes are checked.
        """
        if src == dst:
            return [src]
        parent: Dict[int, int] = {src: src}
        frontier = [src]
        while frontier:
            nxt: List[int] = []
            for u in frontier:
                for v in self._adjacency[u]:
                    if v in parent or not self.nodes[v].alive:
                        continue
                    parent[v] = u
                    if v == dst:
                        path = [v]
                        while path[-1] != src:
                            path.append(parent[path[-1]])
                        return list(reversed(path))
                    nxt.append(v)
            frontier = nxt
        return None


def build_network(
    positions: Sequence[Point],
    cells: CellGrid,
    tx_range: float,
    initial_energy: float = 1e9,
) -> RealNetwork:
    """Construct a :class:`RealNetwork` of identical nodes from positions.

    Node ids are assigned in position order (0..n-1).
    """
    nodes = [
        SensorNode(
            node_id=i,
            position=p,
            tx_range=tx_range,
            initial_energy=initial_energy,
        )
        for i, p in enumerate(positions)
    ]
    return RealNetwork(nodes, cells)


def covered_deployment(side: int, n_nodes: int, seed: int) -> RealNetwork:
    """The standard seeded world: ``n_nodes`` uniform-random nodes on a
    100-unit terrain cut into ``side x side`` cells, plus one node in each
    cell left empty (:func:`~repro.deployment.placement.ensure_coverage`),
    with a radio range of 2.3 cell sides.

    The demos, the sweep workloads and the chaos soak all deploy through
    this one builder; both placement steps draw from one
    ``default_rng(seed)``.
    """
    terrain = Terrain(100.0)
    cells = CellGrid(terrain, side)
    rng = np.random.default_rng(seed)
    positions = ensure_coverage(uniform_random(n_nodes, terrain, rng), cells, rng)
    return build_network(positions, cells, tx_range=cells.cell_side * 2.3)
