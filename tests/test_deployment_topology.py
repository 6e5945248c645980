"""Unit tests for repro.deployment.topology: the real network graph G_R."""

from __future__ import annotations

import gc
import math

import numpy as np
import pytest

from repro.deployment.node import SensorNode
from repro.deployment.placement import uniform_random
from repro.deployment.terrain import CellGrid, Terrain
from repro.deployment.topology import RealNetwork, build_network, covered_deployment

from conftest import make_deployment


def line_network(positions, tx_range=1.5, cells=None):
    cells = cells or CellGrid(Terrain(10.0), 2)
    nodes = [
        SensorNode(i, p, tx_range=tx_range) for i, p in enumerate(positions)
    ]
    return RealNetwork(nodes, cells)


class TestAdjacency:
    def test_unit_disk_edges(self):
        net = line_network([(0.5, 0.5), (1.5, 0.5), (3.5, 0.5)])
        assert net.neighbors(0) == (1,)
        assert net.neighbors(1) == (0,)
        assert net.neighbors(2) == ()

    def test_adjacency_symmetric(self):
        net = make_deployment(side=4)
        for nid in net.node_ids():
            for nbr in net.neighbors(nid):
                assert nid in net.neighbors(nbr)

    def test_adjacency_matches_brute_force(self):
        terrain = Terrain(50.0)
        cells = CellGrid(terrain, 2)
        rng = np.random.default_rng(3)
        pts = uniform_random(60, terrain, rng)
        net = build_network(pts, cells, tx_range=12.0)
        for i in range(60):
            expected = sorted(
                j
                for j in range(60)
                if j != i
                and math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
                <= 12.0
            )
            assert net.neighbors(i) == tuple(expected)

    def test_thousand_node_build_matches_brute_force(self):
        terrain = Terrain(100.0)
        pts = uniform_random(1000, terrain, rng=3)
        net = build_network(pts, CellGrid(terrain, 8), tx_range=8.0)
        assert len(net) == 1000
        xy = np.asarray(pts)
        dist = np.hypot(*(xy[:, None, :] - xy[None, :, :]).transpose(2, 0, 1))
        np.fill_diagonal(dist, np.inf)
        assert net.edge_count() == int((dist <= 8.0).sum()) // 2
        for i in range(0, 1000, 97):
            assert net.neighbors(i) == tuple(np.flatnonzero(dist[i] <= 8.0).tolist())

    def test_duplicate_ids_rejected(self):
        cells = CellGrid(Terrain(10.0), 2)
        nodes = [
            SensorNode(0, (1.0, 1.0), 1.0),
            SensorNode(0, (2.0, 2.0), 1.0),
        ]
        with pytest.raises(ValueError):
            RealNetwork(nodes, cells)

    def test_edge_count_and_degree(self):
        net = line_network([(0.5, 0.5), (1.5, 0.5), (2.5, 0.5)])
        assert net.edge_count() == 2
        assert net.average_degree() == pytest.approx(4 / 3)

    def test_dead_nodes_filtered(self):
        net = line_network([(0.5, 0.5), (1.5, 0.5), (2.5, 0.5)])
        net.node(1).kill()
        assert net.neighbors(0) == ()
        assert net.neighbors(0, alive_only=False) == (1,)
        assert net.alive_ids() == [0, 2]

    def test_neighbour_sets_answer_membership_and_are_not_gc_tracked(self):
        """The unicast path's membership mirror must stay out of the
        collector's walk: at side 64 the neighbour sets held 3.2M of the
        3.9M items in tracked containers, and every full collection
        walked them."""
        net = make_deployment(side=4, n_random=200, seed=3)
        for nid in net.node_ids():
            nbrs = net.neighbor_set(nid)
            assert not gc.is_tracked(nbrs)
            assert sorted(nbrs) == list(net.neighbors(nid, alive_only=False))
            assert nid not in nbrs


class TestCells:
    def test_cell_assignment(self):
        net = make_deployment(side=4)
        for nid in net.node_ids():
            node = net.node(nid)
            assert net.cells.cell_of(node.position) == net.cell_of(nid)

    def test_members_partition_nodes(self):
        net = make_deployment(side=4)
        total = sum(
            len(net.members_of_cell(c, alive_only=False))
            for c in net.cells.cells()
        )
        assert total == len(net)

    def test_members_sorted(self):
        net = make_deployment(side=4)
        for cell in net.cells.cells():
            members = net.members_of_cell(cell)
            assert list(members) == sorted(members)

    def test_members_alive_view_tracks_liveness(self):
        net = make_deployment(side=4)
        cell = next(
            c for c in net.cells.cells() if len(net.members_of_cell(c)) >= 2
        )
        before = net.members_of_cell(cell)
        victim = before[0]
        # cached view is reused while liveness is unchanged
        assert net.members_of_cell(cell) is before
        net.node(victim).kill()
        after = net.members_of_cell(cell)
        assert victim not in after
        assert set(after) == set(before) - {victim}
        net.node(victim).revive(energy=1.0)
        assert set(net.members_of_cell(cell)) == set(before)
        # the full (alive_only=False) view never changes
        assert victim in net.members_of_cell(cell, alive_only=False)

    def test_one_liveness_callback_per_network(self):
        net = make_deployment(side=4)
        callback = net.node(0)._on_liveness_change
        assert all(n._on_liveness_change is callback for n in net.nodes.values())
        nid = net.node_ids()[0]
        victim = net.neighbors(nid)[0]
        cell = net.cell_of(victim)
        assert victim in net.members_of_cell(cell)
        net.node(victim).kill()
        assert victim not in net.alive_neighbors(nid)
        assert victim not in net.members_of_cell(cell)
        net.node(victim).revive(energy=1.0)
        assert victim in net.alive_neighbors(nid)
        assert victim in net.members_of_cell(cell)

    def test_intra_cell_links_match_bruteforce_and_track_liveness(self):
        net = make_deployment(side=4)
        nid = next(
            n for n in net.node_ids()
            if any(net.cell_of(m) == net.cell_of(n) for m in net.neighbors(n))
        )
        links = net.intra_cell_links(nid)
        cell = net.cell_of(nid)
        assert links == tuple(
            (nid, m) for m in net.neighbors(nid) if net.cell_of(m) == cell
        )
        assert links  # chosen to have at least one in-cell neighbor
        # severing every returned link isolates the node from its cell
        peers = {m for _, m in links}
        assert peers <= set(net.members_of_cell(cell))
        # a dead peer drops out of the alive view, stays in the full one
        victim = links[0][1]
        net.node(victim).kill()
        assert victim not in {m for _, m in net.intra_cell_links(nid)}
        assert victim in {
            m for _, m in net.intra_cell_links(nid, alive_only=False)
        }
        net.node(victim).revive(energy=1.0)


class TestConnectivity:
    def test_connected_deployment(self):
        net = make_deployment(side=4)
        assert net.is_connected()

    def test_disconnected_detected(self):
        net = line_network([(0.5, 0.5), (9.5, 9.5)], tx_range=1.0)
        assert not net.is_connected()

    def test_single_node_connected(self):
        net = line_network([(0.5, 0.5)])
        assert net.is_connected()

    def test_cell_subgraph_connected(self):
        net = make_deployment(side=4)
        assert net.all_cell_subgraphs_connected()

    def test_cell_subgraph_disconnected(self):
        # two nodes in cell (0,0), out of range of each other, plus a
        # relay in another cell: globally connected, cell-locally not
        cells = CellGrid(Terrain(10.0), 2)
        net = line_network(
            [(0.5, 0.5), (4.5, 4.5), (5.5, 1.5)], tx_range=5.2, cells=cells
        )
        assert net.cell_of(0) == (0, 0) and net.cell_of(1) == (0, 0)
        assert net.cell_of(2) == (1, 0)
        assert not net.cell_subgraph_connected((0, 0))
        assert net.is_connected()

    def test_empty_cell_not_connected(self):
        cells = CellGrid(Terrain(10.0), 2)
        net = line_network([(0.5, 0.5)], cells=cells)
        assert not net.cell_subgraph_connected((1, 1))

    def test_all_cells_covered(self):
        net = make_deployment(side=4)
        assert net.all_cells_covered()
        net_sparse = line_network([(0.5, 0.5)])
        assert not net_sparse.all_cells_covered()

    def test_validate_preconditions_reports(self):
        net = line_network([(0.5, 0.5)])
        problems = net.validate_protocol_preconditions()
        assert any("cells" in p for p in problems)

    def test_validate_good_deployment_empty(self):
        assert make_deployment(side=4).validate_protocol_preconditions() == []


class TestPaths:
    def test_shortest_hop_path(self):
        net = line_network([(0.5, 0.5), (1.5, 0.5), (2.5, 0.5), (3.5, 0.5)])
        assert net.shortest_hop_path(0, 3) == [0, 1, 2, 3]

    def test_path_to_self(self):
        net = line_network([(0.5, 0.5)])
        assert net.shortest_hop_path(0, 0) == [0]

    def test_unreachable_returns_none(self):
        net = line_network([(0.5, 0.5), (9.5, 9.5)], tx_range=1.0)
        assert net.shortest_hop_path(0, 1) is None

    def test_path_avoids_dead_nodes(self):
        # square: 0-1-3 and 0-2-3
        net = line_network(
            [(0.5, 0.5), (1.5, 0.5), (0.5, 1.5), (1.5, 1.5)], tx_range=1.1
        )
        net.node(1).kill()
        path = net.shortest_hop_path(0, 3)
        assert path == [0, 2, 3]

    def test_distance(self):
        net = line_network([(0.0, 0.0), (3.0, 4.0)], tx_range=10.0)
        assert net.distance(0, 1) == pytest.approx(5.0)


class TestCoveredDeployment:
    @pytest.mark.parametrize("side,n_nodes,seed", [(4, 140, 7), (8, 384, 11), (8, 5, 3)])
    def test_is_the_standard_covered_world(self, side, n_nodes, seed):
        """Same draws as the hand-built world: uniform placement, then
        coverage patches from one rng; 100-unit terrain, range 2.3 cells."""
        net = covered_deployment(side, n_nodes, seed)
        ref = make_deployment(side=side, n_random=n_nodes, seed=seed)
        assert [n.position for n in net.nodes.values()] == [
            n.position for n in ref.nodes.values()
        ]
        assert {n.tx_range for n in net.nodes.values()} == {100.0 / side * 2.3}
        assert net.all_cells_covered()
