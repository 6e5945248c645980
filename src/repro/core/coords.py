"""Grid coordinates, orientation, and Morton (Z-order) indexing.

The virtual architecture of the paper exports an *oriented* two-dimensional
grid (Section 3.2).  Throughout this library a grid coordinate is the pair
``(x, y)`` where

* ``x`` increases **eastward** (left to right), and
* ``y`` increases **southward** (top to bottom),

so ``(0, 0)`` is the **north-west** corner of the grid.  This screen-style
convention makes the paper's "north-west corner of a block is the leader"
rule a simple componentwise minimum and keeps every derived quantity
monotone.

The node numbering used in the paper's Figures 2 and 3 (quad-tree leaves
``0..15`` laid out as 2x2 blocks of consecutive indices) is exactly the
Morton / Z-order curve over ``(x, y)`` with ``x`` contributing the even
bits; :func:`morton_encode` / :func:`morton_decode` reproduce it.
"""

from __future__ import annotations

import enum
from typing import Iterator, List, Tuple

GridCoord = Tuple[int, int]
"""A virtual-grid coordinate ``(x, y)``; ``(0, 0)`` is the north-west corner."""


class Direction(enum.Enum):
    """The four directions of the oriented grid (Section 5.1's ``DIR`` set).

    The value of each member is the unit step ``(dx, dy)`` it induces in
    grid coordinates under the north-west-origin convention; ``ordinal``
    is its index in :data:`ALL_DIRECTIONS`.
    """

    ordinal: int

    NORTH = (0, -1)
    SOUTH = (0, 1)
    EAST = (1, 0)
    WEST = (-1, 0)

    @property
    def dx(self) -> int:
        """Step in the ``x`` (east-west) axis."""
        return self.value[0]

    @property
    def dy(self) -> int:
        """Step in the ``y`` (north-south) axis."""
        return self.value[1]

    @property
    def opposite(self) -> "Direction":
        """The reverse direction (``NORTH`` <-> ``SOUTH``, ``EAST`` <-> ``WEST``)."""
        return _OPPOSITES[self]

    def step(self, coord: GridCoord, distance: int = 1) -> GridCoord:
        """Return ``coord`` moved ``distance`` cells in this direction."""
        x, y = coord
        return (x + self.dx * distance, y + self.dy * distance)


_OPPOSITES = {
    Direction.NORTH: Direction.SOUTH,
    Direction.SOUTH: Direction.NORTH,
    Direction.EAST: Direction.WEST,
    Direction.WEST: Direction.EAST,
}

#: All four directions in deterministic N, S, E, W order.
ALL_DIRECTIONS: Tuple[Direction, ...] = (
    Direction.NORTH,
    Direction.SOUTH,
    Direction.EAST,
    Direction.WEST,
)

# each member's position in ALL_DIRECTIONS, its slot in a routing table:
# indexing by it hashes no enum member (Enum.__hash__ is Python code)
for _ordinal, _direction in enumerate(ALL_DIRECTIONS):
    _direction.ordinal = _ordinal
del _ordinal, _direction


def manhattan(a: GridCoord, b: GridCoord) -> int:
    """Hop distance between two grid coordinates under 4-neighbour routing.

    Section 4.2 defines the member-to-leader communication cost as
    proportional to "the minimum number of hops separating them in the
    virtual network graph, assuming shortest path routing"; on the oriented
    grid that is the Manhattan (L1) distance.
    """
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def chebyshev(a: GridCoord, b: GridCoord) -> int:
    """L-infinity distance between two grid coordinates."""
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def neighbors4(coord: GridCoord) -> List[GridCoord]:
    """The four edge-adjacent coordinates of ``coord`` (may fall off-grid)."""
    x, y = coord
    return [(x, y - 1), (x, y + 1), (x + 1, y), (x - 1, y)]


def direction_between(src: GridCoord, dst: GridCoord) -> Direction:
    """Direction of the single-axis step from ``src`` to an adjacent ``dst``.

    Raises :class:`ValueError` if the two coordinates are not 4-adjacent.
    """
    dx, dy = dst[0] - src[0], dst[1] - src[1]
    for d in ALL_DIRECTIONS:
        if (dx, dy) == d.value:
            return d
    raise ValueError(f"{src!r} and {dst!r} are not 4-adjacent")


def xy_route(src: GridCoord, dst: GridCoord) -> List[GridCoord]:
    """Dimension-ordered (XY) shortest route from ``src`` to ``dst``, inclusive.

    Moves along the x axis first, then the y axis — the canonical
    deterministic shortest-path routing on an oriented grid.  The returned
    list starts with ``src`` and ends with ``dst`` and has
    ``manhattan(src, dst) + 1`` entries.
    """
    path = [src]
    x, y = src
    step_x = 1 if dst[0] > x else -1
    while x != dst[0]:
        x += step_x
        path.append((x, y))
    step_y = 1 if dst[1] > y else -1
    while y != dst[1]:
        y += step_y
        path.append((x, y))
    return path


def _part1by1(n: int) -> int:
    """Spread the low 32 bits of ``n`` so bit *i* lands at position *2i*."""
    n &= 0xFFFFFFFF
    n = (n | (n << 16)) & 0x0000FFFF0000FFFF
    n = (n | (n << 8)) & 0x00FF00FF00FF00FF
    n = (n | (n << 4)) & 0x0F0F0F0F0F0F0F0F
    n = (n | (n << 2)) & 0x3333333333333333
    n = (n | (n << 1)) & 0x5555555555555555
    return n


def _compact1by1(n: int) -> int:
    """Inverse of :func:`_part1by1`: gather every other bit of ``n``."""
    n &= 0x5555555555555555
    n = (n | (n >> 1)) & 0x3333333333333333
    n = (n | (n >> 2)) & 0x0F0F0F0F0F0F0F0F
    n = (n | (n >> 4)) & 0x00FF00FF00FF00FF
    n = (n | (n >> 8)) & 0x0000FFFF0000FFFF
    n = (n | (n >> 16)) & 0x00000000FFFFFFFF
    return n


def morton_encode(coord: GridCoord) -> int:
    """Morton (Z-order) index of a grid coordinate.

    ``x`` occupies the even bits and ``y`` the odd bits, which reproduces
    the paper's Figure 3 numbering: on a 4x4 grid the 2x2 north-west block
    holds indices ``{0, 1, 2, 3}``, the north-east block ``{4, 5, 6, 7}``,
    and so on — the same recursive-quadrant order as the quad-tree of
    Figure 2.
    """
    x, y = coord
    if x < 0 or y < 0:
        raise ValueError(f"Morton encoding requires non-negative coords, got {coord!r}")
    return _part1by1(x) | (_part1by1(y) << 1)


def morton_decode(index: int) -> GridCoord:
    """Inverse of :func:`morton_encode`."""
    if index < 0:
        raise ValueError(f"Morton index must be non-negative, got {index}")
    return (_compact1by1(index), _compact1by1(index >> 1))


def morton_order(side: int) -> Iterator[GridCoord]:
    """Iterate all coordinates of a ``side x side`` grid in Z-order.

    Requires ``side`` to be a power of two (the quad-tree case study's
    assumption that ``log2(sqrt(N))`` is an integer).
    """
    if not is_power_of_two(side):
        raise ValueError(f"side must be a power of two, got {side}")
    for i in range(side * side):
        yield morton_decode(i)


def is_power_of_two(n: int) -> bool:
    """True iff ``n`` is a positive integral power of two."""
    return n > 0 and (n & (n - 1)) == 0


def ilog2(n: int) -> int:
    """Exact integer base-2 logarithm; raises if ``n`` is not a power of two."""
    if not is_power_of_two(n):
        raise ValueError(f"{n} is not a power of two")
    return n.bit_length() - 1


def block_leader(coord: GridCoord, level: int, branching: int = 2) -> GridCoord:
    """North-west corner of the level-``level`` block containing ``coord``.

    The hierarchical-groups middleware (Section 3.2) partitions the grid at
    level *k* into blocks of ``branching**k x branching**k`` nodes and
    designates the node in the north-west corner as the level-*k* leader.
    Level 0 makes every node its own leader.
    """
    if level < 0:
        raise ValueError(f"level must be non-negative, got {level}")
    block = branching**level
    x, y = coord
    return (x - x % block, y - y % block)


def block_members(
    leader: GridCoord, level: int, branching: int = 2
) -> List[GridCoord]:
    """All coordinates of the level-``level`` block led by ``leader``.

    ``leader`` must itself be a level-``level`` leader (i.e. a block
    corner); raises :class:`ValueError` otherwise.
    """
    block = branching**level
    x0, y0 = leader
    if x0 % block or y0 % block:
        raise ValueError(f"{leader!r} is not a level-{level} leader")
    return [(x0 + dx, y0 + dy) for dy in range(block) for dx in range(block)]


def coords_in_rect(x0: int, y0: int, width: int, height: int) -> Iterator[GridCoord]:
    """Iterate coordinates of the axis-aligned rectangle row-major."""
    for y in range(y0, y0 + height):
        for x in range(x0, x0 + width):
            yield (x, y)


def validate_coord(coord: object) -> GridCoord:
    """Check that ``coord`` is an ``(int, int)`` pair and return it typed.

    Used at public API boundaries so that user errors surface with a clear
    message instead of deep inside a protocol run.
    """
    if (
        not isinstance(coord, tuple)
        or len(coord) != 2
        or not all(isinstance(c, int) for c in coord)
    ):
        raise TypeError(f"grid coordinate must be an (int, int) tuple, got {coord!r}")
    return coord  # type: ignore[return-value]
