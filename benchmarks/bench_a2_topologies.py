"""A2 — topology ablation: grid quad-tree vs dedicated tree reduction.

Section 3.2 chooses the oriented grid for uniform deployments and points
at trees for non-uniform ones.  This bench quantifies the trade at equal
leaf counts: the grid pays hop distance between block leaders (physical
locality); a dedicated tree topology pays only its depth, but a real
emulation of it on a terrain would stretch its upper edges — the grid's
hop costs are honest about geography, the tree's are not.  Both reductions
compute identical results.
"""

from __future__ import annotations

import pytest

from repro.core import (
    CountAggregation,
    HierarchicalGroups,
    OrientedGrid,
    VirtualTree,
    execute_round,
    execute_tree_round,
    synthesize_quadtree_program,
    synthesize_tree_program,
)

from paper_helpers import print_table

#: (grid side, matching 4-ary tree depth) at equal leaf count side**2 = 4**depth
PAIRS = [(4, 2), (8, 3), (16, 4), (32, 5)]


def run_grid(side):
    spec = synthesize_quadtree_program(
        HierarchicalGroups(OrientedGrid(side)), CountAggregation(lambda c: True)
    )
    return execute_round(spec, charge_compute=False)


def run_tree(depth):
    spec = synthesize_tree_program(
        VirtualTree(4, depth), CountAggregation(lambda a: True)
    )
    return execute_tree_round(spec, charge_compute=False)


@pytest.mark.parametrize("side,depth", PAIRS)
def test_grid_reduction(benchmark, side, depth):
    result = benchmark(run_grid, side)
    assert result.root_payload == side * side


@pytest.mark.parametrize("side,depth", PAIRS)
def test_tree_reduction(benchmark, side, depth):
    result = benchmark(run_tree, depth)
    assert result.root_payload == 4**depth


def test_topology_report(benchmark):
    def run():
        return [(run_grid(side), run_tree(depth), side) for side, depth in PAIRS]

    rows = benchmark(run)
    table = []
    for grid, tree, side in rows:
        table.append(
            [
                side * side,
                f"{grid.latency:.0f}",
                f"{tree.latency:.0f}",
                f"{grid.ledger.total:.0f}",
                f"{tree.ledger.total:.0f}",
                grid.messages,
                tree.messages,
            ]
        )
        assert grid.root_payload == tree.root_payload
    print_table(
        "A2: grid quad-tree vs dedicated 4-ary tree (equal leaves)",
        ["leaves", "grid latency", "tree latency", "grid energy",
         "tree energy", "grid msgs", "tree msgs"],
        table,
    )
    # tree latency is log(N); grid is sqrt(N): tree wins latency, and the
    # gap widens with N
    gaps = [g.latency - t.latency for g, t, _ in rows]
    assert all(g > 0 for g in gaps)
    assert gaps == sorted(gaps)
