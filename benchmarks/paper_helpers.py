"""Shared helpers for the paper-artifact benchmarks.

Each ``bench_*`` module regenerates one paper artifact (figure) or claim
(experiment id in DESIGN.md).  Benchmarks both *time* the relevant stage
with pytest-benchmark and *print* the regenerated table/series (visible
with ``pytest benchmarks/ --benchmark-only --benchmark-enable -s``); shape
assertions keep the regeneration honest even when output is captured.
The tier-1 suite collects these modules with timing disabled, so every
claim's assertions run on every test run.

Not a ``conftest.py``: ``tests/`` has one too, and two conftest modules
collected by one pytest run share the module name ``conftest``, so a
test's ``from conftest import ...`` could resolve to the wrong file.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.deployment import (
    CellGrid,
    Terrain,
    build_network,
    ensure_coverage,
    uniform_random,
)


def make_deployment(
    side: int = 4,
    n_random: int = 90,
    terrain_side: float = 100.0,
    range_cells: float = 2.3,
    seed: int = 7,
):
    """A covered, connected deployment over a ``side x side`` cell grid."""
    terrain = Terrain(terrain_side)
    cells = CellGrid(terrain, side)
    rng = np.random.default_rng(seed)
    positions = ensure_coverage(uniform_random(n_random, terrain, rng), cells, rng)
    net = build_network(positions, cells, tx_range=cells.cell_side * range_cells)
    assert net.validate_protocol_preconditions() == []
    return net


def print_table(title: str, headers, rows) -> None:
    """Render one regenerated paper table to stdout."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
