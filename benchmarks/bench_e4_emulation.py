"""E4 — Section 5.1: topology-emulation efficiency properties (i)-(iii).

(i)  path setup in all cells occurs in parallel,
(ii) messages cross at most one cell boundary before being suppressed,
(iii) latency proportional to the maximum intra-cell path length.

Measures protocol setup time, message counts, and energy across node
density and radio range, and checks each property explicitly.
"""

from __future__ import annotations

import pytest

from repro.core.coords import ALL_DIRECTIONS
from repro.runtime import emulate_topology, max_intra_cell_path_length

from paper_helpers import make_deployment, print_table


@pytest.mark.parametrize("n_random", [60, 120, 240])
def test_setup_cost_vs_density(benchmark, n_random):
    net = make_deployment(side=4, n_random=n_random, seed=7)
    result = benchmark(emulate_topology, net)
    assert result.topology.verify() == []


@pytest.mark.parametrize("range_cells", [0.8, 1.2, 2.3])
def test_setup_cost_vs_range(benchmark, range_cells):
    net = make_deployment(side=4, n_random=260, range_cells=range_cells, seed=6)
    result = benchmark(emulate_topology, net)
    assert result.topology.verify() == []


def test_properties_report(benchmark):
    def run():
        rows = []
        for n_random, range_cells, seed in (
            (60, 2.3, 7), (120, 2.3, 7), (240, 2.3, 7),
            (260, 0.8, 6), (260, 1.2, 6),
        ):
            net = make_deployment(
                side=4, n_random=n_random, range_cells=range_cells, seed=seed
            )
            result = emulate_topology(net)
            bound = max_intra_cell_path_length(net)
            rows.append(
                (net, result, bound, len(net), range_cells)
            )
        return rows

    rows = benchmark(run)
    table = []
    for net, result, bound, n, range_cells in rows:
        table.append(
            [
                n,
                range_cells,
                f"{result.setup_time:.1f}",
                bound,
                result.messages,
                f"{result.energy:.0f}",
            ]
        )
        # property (iii): setup latency bounded by the intra-cell path bound
        assert result.setup_time <= bound + 1
        # property (ii): entries never reach beyond the adjacent cell
        for nid, tbl in result.topology.tables.items():
            cell = net.cell_of(nid)
            for d in ALL_DIRECTIONS:
                entry = tbl[d]
                if entry is not None:
                    assert net.cell_of(entry) in (cell, d.step(cell))
    print_table(
        "E4: topology emulation setup (4x4 cells)",
        ["nodes", "range (cells)", "setup time", "max intra-cell path",
         "messages", "energy"],
        table,
    )


def test_mesh_alternative_report(benchmark):
    """The clustered-mesh alternative [17] vs the cell-based tables."""
    from repro.runtime import bind_processes, build_leader_mesh, trace_route

    def run():
        rows = []
        for n_random, range_cells, seed in ((150, 2.3, 7), (300, 0.7, 5)):
            net = make_deployment(
                side=4, n_random=n_random, range_cells=range_cells, seed=seed
            )
            binding = bind_processes(net).binding
            tables = emulate_topology(net)
            mesh = build_leader_mesh(net, binding)
            mesh_hops = sum(len(p) - 1 for p in mesh.mesh.routes.values())
            table_hops = sum(
                len(trace_route(tables.topology, binding, s, d)) - 1
                for (s, d) in mesh.mesh.routes
            )
            rows.append(
                [
                    len(net),
                    range_cells,
                    tables.messages,
                    mesh.messages,
                    f"{table_hops / len(mesh.mesh.routes):.2f}",
                    f"{mesh_hops / len(mesh.mesh.routes):.2f}",
                ]
            )
            assert mesh.mesh.verify() == []
        return rows

    rows = benchmark(run)
    print_table(
        "E4+: cell-based tables vs clustered leader mesh [17]",
        ["nodes", "range", "table setup msgs", "mesh setup msgs",
         "mean route (tables)", "mean route (mesh)"],
        rows,
    )


def test_parallel_setup_property(benchmark):
    """Property (i): setup time is independent of the number of cells
    (all cells converge in parallel), holding density constant."""
    def run():
        times = []
        for side, n in ((2, 64), (4, 256), (8, 1024)):
            net = make_deployment(side=side, n_random=n, range_cells=0.9, seed=8)
            result = emulate_topology(net)
            times.append(result.setup_time)
        return times

    times = benchmark(run)
    print(f"\nE4(i): setup times across 4, 16, 64 cells: {times}")
    # parallel setup: no blow-up with cell count (within one hop-round)
    assert max(times) <= min(times) + 2.0
