"""Property tests for the bulk-built real network ``G_R``.

The unit-disk graph, the alive views and the connectivity checks are
built with numpy matrices and set operations; each is held here to a
plain reference over generated node sets and kill/revive sequences.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coords import ALL_DIRECTIONS
from repro.deployment.node import SensorNode
from repro.deployment.terrain import CellGrid, Terrain
from repro.deployment.topology import RealNetwork
from repro.runtime.topology_emulation import TopologyEmulationProcess
from repro.simulator import Simulator, WirelessMedium
from repro.simulator.process import ProcessHost

SETTINGS = settings(max_examples=60, deadline=None)

#: the largest drawable range; whenever a set holds it, the spatial
#: buckets are 2.5 wide and the multiples of 2.5 lie on their edges
MAX_RANGE = 2.5
RANGES = st.sampled_from([0.75, 1.0, MAX_RANGE]) | st.floats(0.25, MAX_RANGE)
COORDS = st.floats(0.0, 10.0) | st.integers(0, 4).map(lambda k: MAX_RANGE * k)
POINTS = st.tuples(COORDS, COORDS)


@st.composite
def node_sets(draw, max_nodes=30):
    """Nodes with mixed ranges, unsorted non-contiguous ids above the
    small-int cache, and some coincident positions; 0, 1 and 2 nodes
    are drawn too."""
    n = draw(st.integers(0, max_nodes))
    ids = draw(st.lists(st.integers(300, 10**6), min_size=n, max_size=n, unique=True))
    pool = draw(st.lists(POINTS, min_size=1, max_size=4))
    return [
        SensorNode(nid, draw(st.sampled_from(pool) | POINTS), draw(RANGES))
        for nid in ids
    ]


def make_network(nodes):
    return RealNetwork(nodes, CellGrid(Terrain(10.0), 4))


def brute_force_adjacency(nodes):
    """All pairs at once: ``d <= min(range_i, range_j)``, i != j."""
    if not nodes:
        return {}
    xy = np.array([n.position for n in nodes], dtype=float)
    ranges = np.array([n.tx_range for n in nodes], dtype=float)
    d = np.hypot(xy[:, None, 0] - xy[None, :, 0], xy[:, None, 1] - xy[None, :, 1])
    hits = d <= np.minimum(ranges[:, None], ranges[None, :])
    np.fill_diagonal(hits, False)
    return {
        a.node_id: tuple(sorted(b.node_id for b, hit in zip(nodes, row) if hit))
        for a, row in zip(nodes, hits)
    }


def reference_reach(net, start, allowed):
    """Plain BFS from ``start`` over alive nodes of ``allowed``."""
    seen, queue = {start}, deque([start])
    while queue:
        u = queue.popleft()
        for v in net.neighbors(u, alive_only=False):
            if v not in seen and v in allowed and net.node(v).alive:
                seen.add(v)
                queue.append(v)
    return seen


def reference_preconditions(net):
    alive = [nid for nid in net.node_ids() if net.node(nid).alive]
    members = {
        c: [m for m in net.members_of_cell(c, alive_only=False) if net.node(m).alive]
        for c in net.cells.cells()
    }
    problems = []
    uncovered = [c for c, ms in members.items() if not ms]
    if uncovered:
        problems.append(f"{len(uncovered)} cells without alive nodes")
    else:
        broken = [
            c for c, ms in members.items()
            if len(reference_reach(net, ms[0], set(ms))) != len(ms)
        ]
        if broken:
            problems.append(f"{len(broken)} cells with disconnected induced subgraphs")
    if len(alive) > 1 and len(reference_reach(net, alive[0], set(alive))) != len(alive):
        problems.append("G_R is not connected")
    return problems


#: a kill/revive step: (index into the sorted ids, kill?)
STEPS = st.lists(st.tuples(st.integers(0, 10**6), st.booleans()), max_size=12)


def apply_step(net, step):
    ids = net.node_ids()
    node = net.node(ids[step[0] % len(ids)])
    if step[1]:
        node.kill()
    else:
        node.revive()


class TestAdjacency:
    @given(node_sets())
    @SETTINGS
    def test_equals_all_pairs_reference(self, nodes):
        net = make_network(nodes)
        want = brute_force_adjacency(nodes)
        assert {nid: net.neighbors(nid, alive_only=False) for nid in net.nodes} == want
        assert net.edge_count() == sum(map(len, want.values())) // 2

    @given(node_sets())
    @SETTINGS
    def test_entries_are_the_neighbours_own_id_objects(self, nodes):
        net = make_network(nodes)
        for nid in net.nodes:
            for nbr in net.neighbors(nid, alive_only=False):
                assert nbr is net.node(nbr).node_id
            assert list(net.neighbor_set(nid)) == list(net.neighbors(nid, alive_only=False))


class TestAliveViews:
    @given(node_sets(max_nodes=20), STEPS)
    @SETTINGS
    def test_views_equal_filtered_copies(self, nodes, steps):
        net = make_network(nodes)
        if not nodes:
            return
        for step in [None, *steps]:
            if step is not None:
                apply_step(net, step)
            alive = {nid for nid, n in net.nodes.items() if n.alive}
            for nid in net.nodes:
                full = net.neighbors(nid, alive_only=False)
                view = net.alive_neighbors(nid)
                assert view == tuple(j for j in full if j in alive)
                if len(alive) == len(nodes):
                    assert view is full
            for cell in net.cells.cells():
                full = net.members_of_cell(cell, alive_only=False)
                view = net.members_of_cell(cell)
                assert view == tuple(m for m in full if m in alive)
                if len(alive) == len(nodes):
                    assert view is full


class TestConnectivity:
    @given(node_sets(max_nodes=25), STEPS)
    @SETTINGS
    def test_checks_equal_reference_bfs(self, nodes, steps):
        net = make_network(nodes)
        if not nodes:
            return
        for step in steps:
            apply_step(net, step)
        alive = [nid for nid in net.node_ids() if net.node(nid).alive]
        for start in alive:
            assert net._bfs(start, set(alive)) == reference_reach(net, start, set(alive))
        assert net.is_connected() == (
            len(alive) <= 1 or len(reference_reach(net, alive[0], set(alive))) == len(alive)
        )
        for cell in net.cells.cells():
            ms = net.members_of_cell(cell)
            want = bool(ms) and len(reference_reach(net, ms[0], set(ms))) == len(ms)
            assert net.cell_subgraph_connected(cell) == want
        assert net.validate_protocol_preconditions() == reference_preconditions(net)


class TestDirectEntries:
    @given(node_sets(max_nodes=30), STEPS)
    @SETTINGS
    def test_lowest_alive_neighbour_per_adjacent_cell(self, nodes, steps):
        net = make_network(nodes)
        if not nodes:
            return
        for step in steps:
            apply_step(net, step)
        sim = Simulator()
        host = ProcessHost(sim, WirelessMedium(sim, net))
        host.add_all(lambda nid: TopologyEmulationProcess())
        for proc in host.processes.values():
            proc.on_start()  # step 2 only: the announcements stay queued
        for nid, proc in host.processes.items():
            cell = net.cell_of(nid)
            want = []
            for d in ALL_DIRECTIONS:
                hits = [
                    m for m in net.neighbors(nid, alive_only=False)
                    if net.node(m).alive and net.cell_of(m) == d.step(cell)
                ]
                want.append(min(hits) if hits else None)
            assert proc.rt == want
            assert proc.filled == sum(1 << o for o, e in enumerate(want) if e is not None)
        host.teardown()
