"""F2 — Figure 2: the quad-tree task-graph representation.

Regenerates the published figure (node labels 0..15 at level 0, {0, 4, 8,
12} at level 1, {0} at level 2 for the 4x4 grid) and times construction
across grid sizes.
"""

from __future__ import annotations

import pytest

from repro.core import OrientedGrid, build_quadtree, quadtree_ascii
from repro.core.taskgraph import TaskId

from paper_helpers import print_table


def test_figure2_regeneration(benchmark):
    """Build the exact Figure 2 graph and print it."""
    grid = OrientedGrid(4)
    tg = benchmark(build_quadtree, grid)

    levels = tg.levels()
    rows = [
        [f"level {lv[0].tid.level}", sorted(t.tid.index for t in lv)]
        for lv in levels
    ]
    print_table("F2: quad-tree node labels (paper Figure 2)", ["level", "labels"], rows)
    print(quadtree_ascii(tg))

    assert sorted(t.tid.index for t in levels[0]) == list(range(16))
    assert sorted(t.tid.index for t in levels[1]) == [0, 4, 8, 12]
    assert [t.tid.index for t in levels[2]] == [0]
    assert sorted(t.index for t in tg.predecessors(TaskId(2, 0))) == [0, 4, 8, 12]


@pytest.mark.parametrize("side", [8, 16, 32, 64])
def test_construction_scales(benchmark, side):
    """Construction cost grows linearly with task count (4N/3)."""
    grid = OrientedGrid(side)
    tg = benchmark(build_quadtree, grid)
    expected = sum((side // 2**k) ** 2 for k in range(grid.max_level + 1))
    assert len(tg) == expected


def test_validation_cost(benchmark):
    """Structural validation of a 32x32 graph."""
    tg = build_quadtree(OrientedGrid(32))
    benchmark(tg.validate)
