"""Terrain geometry and the cell decomposition of Section 5.

*"The underlying network consists of n identical sensor nodes deployed
over a square terrain of side D.  The terrain can be partitioned into
non-overlapping equal sized cells each of side c ... Each sensor node has a
transmission range of r."*

Physical coordinates follow the same screen convention as the virtual
grid: the origin is the terrain's **north-west** corner, ``x`` grows
eastward and ``y`` grows **southward**, so the physical cell ``(i, j)``
underlies virtual-grid node ``(i, j)`` directly and "north-west corner"
means componentwise minimum in both spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple

from ..core.coords import GridCoord

Point = Tuple[float, float]
"""A physical terrain position ``(x, y)`` in metres (NW origin)."""


@dataclass(frozen=True)
class Terrain:
    """A square deployment terrain of side ``side`` metres."""

    side: float

    def __post_init__(self) -> None:
        if self.side <= 0:
            raise ValueError(f"terrain side must be positive, got {self.side}")

    def contains(self, point: Point) -> bool:
        """True iff ``point`` lies inside (or on the boundary of) the terrain."""
        x, y = point
        return 0.0 <= x <= self.side and 0.0 <= y <= self.side

    @property
    def area(self) -> float:
        """Terrain area in square metres."""
        return self.side * self.side


def max_cell_side_for_range(tx_range: float) -> float:
    """Largest cell side guaranteeing single-hop adjacency between cells.

    Two nodes in horizontally/vertically adjacent cells of side *c* are at
    most ``c * sqrt(5)`` apart (opposite corners of a 1x2 cell pair), so
    ``c <= r / sqrt(5)`` guarantees every node can reach every node of every
    adjacent cell in one hop — the classical GAF-style constant the paper's
    ``c <= r / sqrt(5)`` condition encodes.  Larger cells are allowed (the
    Section 5.1 protocol then discovers multi-hop paths), smaller cells
    waste density.
    """
    if tx_range <= 0:
        raise ValueError(f"transmission range must be positive, got {tx_range}")
    return tx_range / math.sqrt(5.0)


class CellGrid:
    """The cell decomposition of a terrain: ``cells_per_side ** 2`` square
    cells, indexed by the virtual-grid coordinate they emulate.

    Parameters
    ----------
    terrain:
        The deployment terrain.
    cells_per_side:
        Number of cells per axis; the cell side is
        ``terrain.side / cells_per_side``.
    """

    def __init__(self, terrain: Terrain, cells_per_side: int):
        if cells_per_side <= 0:
            raise ValueError(
                f"cells_per_side must be positive, got {cells_per_side}"
            )
        self.terrain = terrain
        self.cells_per_side = cells_per_side
        self.cell_side = terrain.side / cells_per_side

    def __repr__(self) -> str:
        return (
            f"CellGrid({self.cells_per_side}x{self.cells_per_side} cells of "
            f"side {self.cell_side:.3g} over terrain {self.terrain.side:.3g})"
        )

    @property
    def num_cells(self) -> int:
        """Total number of cells (= virtual nodes emulated)."""
        return self.cells_per_side**2

    def cell_of(self, point: Point) -> GridCoord:
        """The cell containing a terrain point (boundary points clamp to
        the lower-indexed cell, terrain edge clamps inward)."""
        if not self.terrain.contains(point):
            raise ValueError(f"{point!r} lies outside the terrain")
        i = min(int(point[0] / self.cell_side), self.cells_per_side - 1)
        j = min(int(point[1] / self.cell_side), self.cells_per_side - 1)
        return (i, j)

    def contains_cell(self, cell: GridCoord) -> bool:
        """True iff ``cell`` is a valid cell index."""
        i, j = cell
        return 0 <= i < self.cells_per_side and 0 <= j < self.cells_per_side

    def center(self, cell: GridCoord) -> Point:
        """Geographic centre ``C(v_ij)`` of a cell (Section 5.2)."""
        self._check(cell)
        i, j = cell
        return ((i + 0.5) * self.cell_side, (j + 0.5) * self.cell_side)

    def bounds(self, cell: GridCoord) -> Tuple[float, float, float, float]:
        """``(x_min, y_min, x_max, y_max)`` of a cell."""
        self._check(cell)
        i, j = cell
        c = self.cell_side
        return (i * c, j * c, (i + 1) * c, (j + 1) * c)

    def cells(self) -> Iterator[GridCoord]:
        """Iterate all cell indices row-major."""
        for j in range(self.cells_per_side):
            for i in range(self.cells_per_side):
                yield (i, j)

    def distance_to_center(self, point: Point, cell: GridCoord) -> float:
        """Euclidean distance from ``point`` to the centre of ``cell`` —
        the delta value each node broadcasts in the binding protocol."""
        cx, cy = self.center(cell)
        return math.hypot(point[0] - cx, point[1] - cy)

    def guarantees_single_hop_adjacency(self, tx_range: float) -> bool:
        """True iff the cell side satisfies ``c <= r / sqrt(5)``."""
        return self.cell_side <= max_cell_side_for_range(tx_range) + 1e-12

    def _check(self, cell: GridCoord) -> None:
        if not self.contains_cell(cell):
            raise ValueError(
                f"{cell!r} is not a cell of this {self.cells_per_side}^2 grid"
            )
