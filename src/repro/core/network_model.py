"""Virtual network models: the design-time topology of the virtual architecture.

Section 2 of the paper: *"The network model specifies the topology of the
deployment that can be assumed at design time. This (virtual) topology can
be emulated on the real network deployment in a variety of ways that could
be hidden from the algorithm designer."*

The case study (Section 3.2) abstracts the underlying network as an
**oriented two-dimensional grid**; for non-uniform deployments the paper
suggests a **tree** instead.  Both are provided here behind the common
:class:`VirtualTopology` interface so that algorithms, cost analysis, and
the synthesis pass are written once against the abstraction.
"""

from __future__ import annotations

import abc
from typing import Iterator, List, Optional

from .coords import (
    ALL_DIRECTIONS,
    Direction,
    GridCoord,
    ilog2,
    is_power_of_two,
    manhattan,
    morton_decode,
    morton_encode,
    xy_route,
)


class VirtualTopology(abc.ABC):
    """Abstract machine topology exported to the algorithm designer.

    A topology is a finite graph whose vertices are addressable *virtual
    nodes*.  Concrete subclasses fix the vertex set, the adjacency, and a
    shortest-path hop metric, which the cost model (``repro.core.cost_model``)
    turns into latency and energy estimates.
    """

    @abc.abstractmethod
    def nodes(self) -> Iterator[GridCoord]:
        """Iterate every virtual node address."""

    @abc.abstractmethod
    def __contains__(self, coord: GridCoord) -> bool:
        """True iff ``coord`` addresses a node of this topology."""

    @abc.abstractmethod
    def neighbors(self, coord: GridCoord) -> List[GridCoord]:
        """Adjacent virtual nodes of ``coord``."""

    @abc.abstractmethod
    def hop_distance(self, a: GridCoord, b: GridCoord) -> int:
        """Minimum number of hops between ``a`` and ``b``."""

    @abc.abstractmethod
    def route(self, a: GridCoord, b: GridCoord) -> List[GridCoord]:
        """A deterministic shortest path from ``a`` to ``b``, inclusive."""

    @property
    @abc.abstractmethod
    def num_nodes(self) -> int:
        """Total number of virtual nodes."""

    def validate_member(self, coord: GridCoord) -> None:
        """Raise :class:`ValueError` if ``coord`` is not a node."""
        if coord not in self:
            raise ValueError(f"{coord!r} is not a node of {self!r}")


class OrientedGrid(VirtualTopology):
    """The oriented two-dimensional grid of the case study (Section 3.2).

    Nodes are the coordinates ``(x, y)`` with ``0 <= x < width`` and
    ``0 <= y < height``; ``(0, 0)`` is the north-west corner.  Each node
    corresponds to one *point of coverage* (PoC) of the terrain.  Edges
    connect 4-neighbours, and the default routing is dimension-ordered
    (XY) shortest-path routing.

    Parameters
    ----------
    width, height:
        Grid extents.  ``height`` defaults to ``width`` (square grid).
    """

    def __init__(self, width: int, height: Optional[int] = None):
        if height is None:
            height = width
        if width <= 0 or height <= 0:
            raise ValueError(f"grid extents must be positive, got {width}x{height}")
        self.width = width
        self.height = height

    # -- identity ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"OrientedGrid({self.width}x{self.height})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OrientedGrid)
            and other.width == self.width
            and other.height == self.height
        )

    def __hash__(self) -> int:
        return hash(("OrientedGrid", self.width, self.height))

    # -- VirtualTopology interface ----------------------------------------

    @property
    def num_nodes(self) -> int:
        """``width * height`` — the paper's *N*."""
        return self.width * self.height

    def nodes(self) -> Iterator[GridCoord]:
        for y in range(self.height):
            for x in range(self.width):
                yield (x, y)

    def __contains__(self, coord: GridCoord) -> bool:
        if not isinstance(coord, tuple) or len(coord) != 2:
            return False
        x, y = coord
        return 0 <= x < self.width and 0 <= y < self.height

    def neighbors(self, coord: GridCoord) -> List[GridCoord]:
        self.validate_member(coord)
        x, y = coord
        out = []
        for d in ALL_DIRECTIONS:
            n = (x + d.dx, y + d.dy)
            if n in self:
                out.append(n)
        return out

    def neighbor_in(self, coord: GridCoord, direction: Direction) -> Optional[GridCoord]:
        """The neighbour of ``coord`` in ``direction``, or None at the edge."""
        self.validate_member(coord)
        n = direction.step(coord)
        return n if n in self else None

    def hop_distance(self, a: GridCoord, b: GridCoord) -> int:
        self.validate_member(a)
        self.validate_member(b)
        return manhattan(a, b)

    def route(self, a: GridCoord, b: GridCoord) -> List[GridCoord]:
        self.validate_member(a)
        self.validate_member(b)
        return xy_route(a, b)

    # -- grid-specific helpers ---------------------------------------------

    @property
    def is_square(self) -> bool:
        """True iff ``width == height``."""
        return self.width == self.height

    @property
    def is_quadtree_compatible(self) -> bool:
        """True iff the grid is square with power-of-two side.

        This is the Section 4 assumption: a ``sqrt(N) x sqrt(N)`` grid with
        ``log2(sqrt(N))`` integral, so that recursive quadrant division is
        exact at every level.
        """
        return self.is_square and is_power_of_two(self.width)

    @property
    def max_level(self) -> int:
        """Depth of the quadrant hierarchy: ``log2(side)``.

        Only defined for quadtree-compatible grids.
        """
        if not self.is_quadtree_compatible:
            raise ValueError(
                f"{self!r} is not square with power-of-two side; "
                "the quadrant hierarchy is undefined"
            )
        return ilog2(self.width)

    def index_of(self, coord: GridCoord) -> int:
        """Morton (Z-order) index of a node — the Figure 2/3 numbering."""
        self.validate_member(coord)
        return morton_encode(coord)

    def coord_of(self, index: int) -> GridCoord:
        """Inverse of :func:`index_of`."""
        coord = morton_decode(index)
        self.validate_member(coord)
        return coord

    def row_major_index(self, coord: GridCoord) -> int:
        """Plain row-major index (used for dense array storage)."""
        self.validate_member(coord)
        return coord[1] * self.width + coord[0]

    def boundary_nodes(self) -> Iterator[GridCoord]:
        """Nodes on the outer perimeter of the grid."""
        for x in range(self.width):
            yield (x, 0)
            if self.height > 1:
                yield (x, self.height - 1)
        for y in range(1, self.height - 1):
            yield (0, y)
            if self.width > 1:
                yield (self.width - 1, y)

    def diameter(self) -> int:
        """Maximum hop distance between any two nodes."""
        return (self.width - 1) + (self.height - 1)


class VirtualTree(VirtualTopology):
    """A rooted complete *k*-ary tree topology.

    Section 3.2: *"For non-uniform deployments, other virtual topologies
    such as a tree could be more appropriate."*  Node addresses reuse the
    ``(x, y)`` pair shape as ``(level, index)``: the root is ``(0, 0)`` and
    the children of ``(l, i)`` are ``(l+1, k*i) .. (l+1, k*i + k-1)``.

    Parameters
    ----------
    arity:
        Branching factor ``k`` (>= 2).
    depth:
        Number of edge levels; a tree of depth ``d`` has ``d+1`` node
        levels and ``k**d`` leaves.
    """

    def __init__(self, arity: int, depth: int):
        if arity < 2:
            raise ValueError(f"arity must be >= 2, got {arity}")
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        self.arity = arity
        self.depth = depth
        # node count per level, so a membership check (both endpoints of
        # every routed message) computes no power
        self._level_sizes = tuple(arity**level for level in range(depth + 1))

    def __repr__(self) -> str:
        return f"VirtualTree(arity={self.arity}, depth={self.depth})"

    @property
    def num_nodes(self) -> int:
        return sum(self._level_sizes)

    def nodes(self) -> Iterator[GridCoord]:
        for level, size in enumerate(self._level_sizes):
            for index in range(size):
                yield (level, index)

    def __contains__(self, coord: GridCoord) -> bool:
        if not isinstance(coord, tuple) or len(coord) != 2:
            return False
        level, index = coord
        return 0 <= level <= self.depth and 0 <= index < self._level_sizes[level]

    def parent(self, coord: GridCoord) -> Optional[GridCoord]:
        """Parent address, or None for the root."""
        self.validate_member(coord)
        level, index = coord
        if level == 0:
            return None
        return (level - 1, index // self.arity)

    def children(self, coord: GridCoord) -> List[GridCoord]:
        """Child addresses (empty for leaves)."""
        self.validate_member(coord)
        level, index = coord
        if level == self.depth:
            return []
        return [(level + 1, self.arity * index + j) for j in range(self.arity)]

    def neighbors(self, coord: GridCoord) -> List[GridCoord]:
        out = self.children(coord)
        p = self.parent(coord)
        if p is not None:
            out.append(p)
        return out

    def hop_distance(self, a: GridCoord, b: GridCoord) -> int:
        return len(self.route(a, b)) - 1

    def route(self, a: GridCoord, b: GridCoord) -> List[GridCoord]:
        """The unique tree path between ``a`` and ``b``: up from ``a`` to
        their lowest common ancestor, then down to ``b``.

        The ancestor is found arithmetically: the deeper end climbs to its
        parent (``index // arity``) until both ends share a level, then
        both climb together until they meet.
        """
        self.validate_member(a)
        self.validate_member(b)
        arity = self.arity
        (la, ia), (lb, ib) = a, b
        up, down = [a], [b]
        while la > lb:
            la, ia = la - 1, ia // arity
            up.append((la, ia))
        while lb > la:
            lb, ib = lb - 1, ib // arity
            down.append((lb, ib))
        while ia != ib:
            la, ia, ib = la - 1, ia // arity, ib // arity
            up.append((la, ia))
            down.append((la, ib))
        down.pop()  # the common ancestor, already ending ``up``
        up.extend(reversed(down))
        return up
