"""Feature-region boundary summaries and their divide-and-conquer merge.

The data exchanged between nodes of the case study *"represents boundaries
of feature regions"* (Section 4.1): a node overseeing a geographic extent
describes the feature regions inside it compactly — full detail only for
cells on the extent's **perimeter** (where regions may continue into
neighbouring extents), a bare count + areas for regions already **closed**
(entirely interior).  Merging the four quadrant summaries of a block
stitches regions that touch across the shared internal borders and then
re-summarizes at the block's perimeter, achieving the *"maximum data
compression"* the spatial-correlation constraint is designed for.  This is
the image-component-labeling strategy of Alnuweiri & Prasanna [3] that the
paper builds on.

Two objects implement it:

* :class:`RegionSummary` — the immutable, canonicalized payload
  transmitted upward (the ``msubGraph`` of Figure 4's message alphabet).
  Its :attr:`~RegionSummary.size_units` (perimeter length + closed-region
  count) is the message size charged to the cost model.
* :class:`MergeAccumulator` — the per-level ``mySubGraph[k]`` state: child
  summaries are added **incrementally in any order** (the asynchronous
  model's requirement); stitching happens on arrival and closure is
  resolved at :meth:`~MergeAccumulator.finalize`.

Correctness oracle (property-tested): the root summary's
:meth:`~RegionSummary.total_regions` equals the number of 4-connected
components of the feature matrix, and the multiset of region areas
matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.coords import GridCoord

Extent = Tuple[int, int, int, int]
"""An axis-aligned rectangle ``(x0, y0, width, height)`` in grid cells."""


def extent_cells_on_perimeter(extent: Extent) -> Set[GridCoord]:
    """All cells lying on the outer ring of ``extent``."""
    x0, y0, w, h = extent
    cells: Set[GridCoord] = set()
    for x in range(x0, x0 + w):
        cells.add((x, y0))
        cells.add((x, y0 + h - 1))
    for y in range(y0, y0 + h):
        cells.add((x0, y))
        cells.add((x0 + w - 1, y))
    return cells


def extent_contains(extent: Extent, cell: GridCoord) -> bool:
    """True iff ``cell`` lies inside ``extent``."""
    x0, y0, w, h = extent
    return x0 <= cell[0] < x0 + w and y0 <= cell[1] < y0 + h


def extents_disjoint(a: Extent, b: Extent) -> bool:
    """True iff the two rectangles share no cell."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    return ax + aw <= bx or bx + bw <= ax or ay + ah <= by or by + bh <= ay


@dataclass(frozen=True)
class RegionSummary:
    """Canonical boundary description of the feature regions in an extent.

    Attributes
    ----------
    extent:
        The geographic oversight of the summary.
    perimeter:
        Sorted tuple of ``((x, y), label)`` for every *feature* cell on
        the extent perimeter.  Labels are canonical: ``0..k-1`` in order
        of each open region's first perimeter cell (sorted by ``(y, x)``).
    open_areas:
        ``open_areas[label]`` is the total cell count of that open region
        within this extent.
    closed_count:
        Number of feature regions entirely interior to the extent.
    closed_areas:
        Sorted areas of the closed regions (len == closed_count).
    """

    extent: Extent
    perimeter: Tuple[Tuple[GridCoord, int], ...]
    open_areas: Tuple[int, ...]
    closed_count: int
    closed_areas: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.closed_count != len(self.closed_areas):
            raise ValueError("closed_count must match closed_areas length")
        labels = {lab for _, lab in self.perimeter}
        if labels != set(range(len(self.open_areas))):
            raise ValueError("perimeter labels must be canonical 0..k-1")

    @property
    def open_count(self) -> int:
        """Number of distinct open regions (touching the perimeter)."""
        return len(self.open_areas)

    @property
    def size_units(self) -> float:
        """Message size in data units: one per perimeter entry, one per
        closed region, plus a fixed header unit."""
        return float(len(self.perimeter) + len(self.closed_areas) + 1)

    def total_regions(self) -> int:
        """Region count, valid when the extent is the full monitored area
        (open regions are then complete regions)."""
        return self.closed_count + self.open_count

    def all_areas(self) -> List[int]:
        """Areas of all regions (closed + open), sorted — the query result
        for region-size enumeration at the root."""
        return sorted(list(self.closed_areas) + list(self.open_areas))

    def label_of(self, cell: GridCoord) -> Optional[int]:
        """The open-region label of a perimeter cell (None if absent)."""
        for c, lab in self.perimeter:
            if c == cell:
                return lab
        return None


def empty_summary(extent: Extent) -> RegionSummary:
    """Summary of an extent with no feature cells."""
    return RegionSummary(
        extent=extent, perimeter=(), open_areas=(), closed_count=0, closed_areas=()
    )


def cell_summary(cell: GridCoord, is_feature: bool) -> RegionSummary:
    """Level-0 summary of a single grid cell (Figure 4's ``mySubGraph[0]``
    computed "from intra-cell readings")."""
    extent: Extent = (cell[0], cell[1], 1, 1)
    if not is_feature:
        return empty_summary(extent)
    return RegionSummary(
        extent=extent,
        perimeter=((cell, 0),),
        open_areas=(1,),
        closed_count=0,
        closed_areas=(),
    )


class _UnionFind:
    """Union-find over hashable keys with path compression."""

    def __init__(self) -> None:
        self.parent: Dict[object, object] = {}

    def add(self, key: object) -> None:
        self.parent.setdefault(key, key)

    def find(self, key: object) -> object:
        root = key
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[key] != root:
            self.parent[key], key = root, self.parent[key]
        return root

    def union(self, a: object, b: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


class MergeAccumulator:
    """Incremental merger of child summaries into a parent extent.

    Children may arrive in any order; each :meth:`add` stitches the new
    summary's perimeter against everything already present.  When the
    children tile the parent extent, :meth:`finalize` produces the parent
    :class:`RegionSummary`.  (Finalizing early raises — closure of a
    region can only be decided against the complete parent perimeter.)
    """

    def __init__(self, extent: Extent):
        x0, y0, w, h = extent
        if w <= 0 or h <= 0:
            raise ValueError(f"degenerate extent {extent!r}")
        self.extent = extent
        self._children: List[RegionSummary] = []
        self._uf = _UnionFind()
        # global perimeter map: cell -> (child index, label)
        self._cell_class: Dict[GridCoord, Tuple[int, int]] = {}
        self._covered_cells = 0
        self._closed_count = 0
        self._closed_areas: List[int] = []

    @property
    def children_added(self) -> int:
        """How many child summaries have been merged so far."""
        return len(self._children)

    def is_complete(self) -> bool:
        """True iff the added child extents exactly tile the parent."""
        _, _, w, h = self.extent
        return self._covered_cells == w * h

    def add(self, summary: RegionSummary) -> None:
        """Merge one child summary (incremental; any order).

        Validates that the child extent lies inside the parent and is
        disjoint from previously added children.
        """
        ex = summary.extent
        x0, y0, w, h = ex
        px0, py0, pw, ph = self.extent
        if not (px0 <= x0 and py0 <= y0 and x0 + w <= px0 + pw and y0 + h <= py0 + ph):
            raise ValueError(
                f"child extent {ex!r} not contained in parent {self.extent!r}"
            )
        for prev in self._children:
            if not extents_disjoint(prev.extent, ex):
                raise ValueError(
                    f"child extent {ex!r} overlaps previous {prev.extent!r}"
                )
        idx = len(self._children)
        self._children.append(summary)
        self._covered_cells += w * h
        self._closed_count += summary.closed_count
        self._closed_areas.extend(summary.closed_areas)

        # register classes and stitch across shared borders
        for cell, label in summary.perimeter:
            self._uf.add((idx, label))
            self._cell_class[cell] = (idx, label)
        for cell, label in summary.perimeter:
            x, y = cell
            for nbr in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if extent_contains(ex, nbr):
                    continue  # internal to this child; already same region
                other = self._cell_class.get(nbr)
                if other is not None:
                    self._uf.union((idx, label), other)

    def finalize(self) -> RegionSummary:
        """Produce the parent summary (requires a complete tiling)."""
        if not self.is_complete():
            raise ValueError(
                f"cannot finalize: children cover {self._covered_cells} of "
                f"{self.extent[2] * self.extent[3]} cells"
            )
        # accumulate areas per root class
        areas: Dict[object, int] = {}
        for idx, child in enumerate(self._children):
            counted: Set[int] = set()
            for _, label in child.perimeter:
                if label in counted:
                    continue
                counted.add(label)
                root = self._uf.find((idx, label))
                areas[root] = areas.get(root, 0) + child.open_areas[label]

        parent_ring = extent_cells_on_perimeter(self.extent)
        # classes that survive on the parent perimeter stay open
        surviving: Dict[object, List[GridCoord]] = {}
        for cell, cls in self._cell_class.items():
            if cell in parent_ring:
                surviving.setdefault(self._uf.find(cls), []).append(cell)

        closed_count = self._closed_count
        closed_areas = list(self._closed_areas)
        for root, area in areas.items():
            if root not in surviving:
                closed_count += 1
                closed_areas.append(area)

        # canonical relabeling by first perimeter cell in (y, x) order
        order = sorted(
            surviving.items(), key=lambda kv: min((c[1], c[0]) for c in kv[1])
        )
        relabel = {root: i for i, (root, _) in enumerate(order)}
        perimeter = tuple(
            sorted(
                (
                    (cell, relabel[self._uf.find(cls)])
                    for cell, cls in self._cell_class.items()
                    if cell in parent_ring
                ),
                key=lambda item: (item[0][1], item[0][0]),
            )
        )
        open_areas = tuple(areas[root] for root, _ in order)
        return RegionSummary(
            extent=self.extent,
            perimeter=perimeter,
            open_areas=open_areas,
            closed_count=closed_count,
            closed_areas=tuple(sorted(closed_areas)),
        )
