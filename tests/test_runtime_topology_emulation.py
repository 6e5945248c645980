"""Unit tests for the Section 5.1 topology-emulation protocol."""

from __future__ import annotations

import gc

import pytest

from repro.core.coords import ALL_DIRECTIONS, Direction
from repro.runtime.topology_emulation import (
    emulate_topology,
    max_intra_cell_path_length,
    oracle_reachable_directions,
)

from conftest import make_deployment


@pytest.fixture(scope="module")
def emulation4():
    net = make_deployment(side=4)
    return net, emulate_topology(net)


class TestConvergence:
    def test_verify_clean(self, emulation4):
        _, result = emulation4
        assert result.topology.verify() == []

    def test_protocol_matches_oracle(self, emulation4):
        net, result = emulation4
        oracle = oracle_reachable_directions(net)
        for nid in net.node_ids():
            for d in ALL_DIRECTIONS:
                entry = result.topology.entry(nid, d)
                if (nid, d) in oracle:
                    assert entry is not None, (nid, d)
                else:
                    assert entry is None, (nid, d)

    def test_gateway_chains_terminate(self, emulation4):
        net, result = emulation4
        for nid in net.node_ids():
            for d in ALL_DIRECTIONS:
                if result.topology.entry(nid, d) is None:
                    continue
                chain = result.topology.gateway_chain(nid, d)
                assert chain is not None
                assert chain[0] == nid
                assert net.cell_of(chain[-1]) == d.step(net.cell_of(nid))
                # intermediate hops stay in the origin cell
                for hop in chain[1:-1]:
                    assert net.cell_of(hop) == net.cell_of(nid)

    def test_edge_cells_have_null_outward(self, emulation4):
        net, result = emulation4
        for nid in net.node_ids():
            cell = net.cell_of(nid)
            if cell[0] == 0:
                assert result.topology.entry(nid, Direction.WEST) is None
            if cell[1] == 0:
                assert result.topology.entry(nid, Direction.NORTH) is None

    def test_deterministic(self):
        net1 = make_deployment(side=4, seed=21)
        net2 = make_deployment(side=4, seed=21)
        r1 = emulate_topology(net1)
        r2 = emulate_topology(net2)
        assert r1.topology.tables == r2.topology.tables
        assert r1.messages == r2.messages


class TestMultiHopDiscovery:
    """Small ranges force intra-cell multi-hop paths to the cell borders."""

    @pytest.fixture(scope="class")
    def sparse(self):
        # big cells, short range: most nodes cannot see adjacent cells
        net = make_deployment(side=4, n_random=220, range_cells=0.7, seed=6)
        assert net.validate_protocol_preconditions() == []
        return net, emulate_topology(net)

    def test_multi_hop_entries_exist(self, sparse):
        net, result = sparse
        chains = [
            result.topology.gateway_chain(nid, d)
            for nid in net.node_ids()
            for d in ALL_DIRECTIONS
            if result.topology.entry(nid, d) is not None
        ]
        assert any(len(c) > 2 for c in chains), "expected some multi-hop chains"

    def test_still_matches_oracle(self, sparse):
        net, result = sparse
        assert result.topology.verify() == []

    def test_rebroadcast_happened(self, sparse):
        net, result = sparse
        # more transmissions than nodes implies table-update rebroadcasts
        assert result.messages > len(net)

    def test_setup_time_bounded_by_intra_cell_paths(self, sparse):
        net, result = sparse
        bound = max_intra_cell_path_length(net)
        # property (iii): latency proportional to the longest intra-cell
        # path; unit-size messages -> one time unit per hop of propagation
        assert result.setup_time <= bound + 1


class TestBoundarySuppression:
    def test_messages_cross_at_most_one_boundary(self):
        """Property (ii): RT updates never propagate information further
        than one cell boundary, because receivers in foreign cells ignore
        the message.  Equivalently: a node's table entries only ever point
        to same-cell nodes or direct neighbours in the adjacent cell."""
        net = make_deployment(side=4, seed=33)
        result = emulate_topology(net)
        for nid in net.node_ids():
            cell = net.cell_of(nid)
            for d in ALL_DIRECTIONS:
                entry = result.topology.entry(nid, d)
                if entry is None:
                    continue
                entry_cell = net.cell_of(entry)
                assert entry_cell in (cell, d.step(cell))


class TestPeriodicReexecution:
    def test_rounds_rebuild_tables(self):
        """Periodic re-execution is a fresh run: the tables are rebuilt
        from scratch and, on an unchanged network, come out the same."""
        net = make_deployment(side=4, seed=9)
        once = emulate_topology(net)
        again = emulate_topology(net)
        assert once.topology.tables == again.topology.tables
        assert once.topology.tables is not again.topology.tables
        assert (again.messages, again.energy) == (once.messages, once.energy)

    def test_rerun_after_node_death(self):
        net = make_deployment(side=4, n_random=200, seed=13)
        first = emulate_topology(net)
        # kill a node that currently serves as a gateway
        victim = None
        for nid in net.node_ids():
            for d in ALL_DIRECTIONS:
                if first.topology.entry(nid, d) == nid:
                    continue
            entries = [first.topology.entry(nid, d) for d in ALL_DIRECTIONS]
            if any(e is not None for e in entries):
                victim = next(e for e in entries if e is not None)
                break
        assert victim is not None
        net.node(victim).kill()
        if net.validate_protocol_preconditions() == []:
            second = emulate_topology(net)
            assert second.topology.verify() == []
            assert all(victim not in row for row in
                       second.topology.tables.values())


class TestCosts:
    def test_message_count_scales_with_nodes(self):
        small = make_deployment(side=4, n_random=40, seed=1)
        large = make_deployment(side=4, n_random=160, seed=1)
        r_small = emulate_topology(small)
        r_large = emulate_topology(large)
        assert r_large.messages > r_small.messages

    def test_energy_positive(self, emulation4):
        _, result = emulation4
        assert result.energy > 0


class TestTableForm:
    """Tables are tuples of ints and None in ``ALL_DIRECTIONS`` order,
    indexed by ``Direction.ordinal``, so the collector stops tracking
    them: at side 64 the per-node dicts they replace were 28k of the
    129k objects every full collection walked."""

    def test_rows_are_untracked_ordinal_tuples(self, emulation4):
        net, result = emulation4
        assert [d.ordinal for d in ALL_DIRECTIONS] == list(range(len(ALL_DIRECTIONS)))
        gc.collect()
        for nid, row in result.topology.tables.items():
            assert type(row) is tuple and not gc.is_tracked(row)
            assert list(row) == [result.topology.entry(nid, d) for d in ALL_DIRECTIONS]
        assert result.topology.verify() == []

    def test_repair_replaces_only_its_direction(self):
        net = make_deployment(side=4, n_random=200, seed=13)
        topo = emulate_topology(net).topology
        nid, d = next(
            (n, d) for n in net.node_ids() for d in ALL_DIRECTIONS
            if topo.entry(n, d) is not None
        )
        victim, cell = topo.entry(nid, d), net.cell_of(nid)
        before = dict(topo.tables)
        net.node(victim).kill()
        assert topo.repair(cell, d)
        gc.collect()
        for m in net.members_of_cell(cell):
            row = topo.tables[m]
            assert not gc.is_tracked(row)
            assert topo.entry(m, d) != victim
            assert all(
                row[o.ordinal] == before[m][o.ordinal] for o in ALL_DIRECTIONS if o is not d
            )
            if topo.entry(m, d) is not None:
                assert net.cell_of(topo.gateway_chain(m, d)[-1]) == d.step(cell)
        assert not topo.repair(cell, d)  # throttled until liveness changes again
