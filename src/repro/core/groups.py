"""Hierarchical group-formation middleware (Section 3.2).

*"The concept of hierarchical groups is supported for the grid topology.
At the lowest level of hierarchy (level 0), every node is both a group
member and a group leader.  At level 1, the grid is partitioned into blocks
of 2x2 nodes.  The node in the north-west corner is designated a level 1
leader, and remaining nodes of the block are level 1 followers, and so on.
Since every node knows its own grid coordinates, it can also determine its
role as leader and/or follower at each level of the hierarchy."*

This module implements that middleware service as pure functions of grid
coordinates — exactly the property the paper exploits (role determination
without communication) — plus the cost accounting the mapping stage needs:
*"the latency and energy of transmitting a data packet from a level i
follower to the level i leader is proportional to the minimum number of
hops separating them in the virtual network graph"* (Section 4.2).

Alternative leader-placement policies (:class:`CenterLeaderPolicy`,
:class:`RandomLeaderPolicy`) are provided for the energy-balance ablation
(experiment E6 in DESIGN.md): the paper leaves the leader choice to the
middleware, so the policy is pluggable.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterator, List, Optional, Tuple

from .coords import GridCoord, block_leader, block_members
from .network_model import OrientedGrid


class LeaderPolicy(abc.ABC):
    """Strategy choosing which block member is the level-*k* group leader."""

    @abc.abstractmethod
    def leader_of_block(
        self, block_corner: GridCoord, level: int, branching: int
    ) -> GridCoord:
        """Leader coordinate of the block whose NW corner is ``block_corner``."""

    def name(self) -> str:
        """Short policy name used in reports."""
        return type(self).__name__


class NorthWestLeaderPolicy(LeaderPolicy):
    """The paper's policy: the node in the north-west corner leads."""

    def leader_of_block(
        self, block_corner: GridCoord, level: int, branching: int
    ) -> GridCoord:
        return block_corner


class CenterLeaderPolicy(LeaderPolicy):
    """Leader at the (north-west-rounded) centre of the block.

    Minimizes the expected member-to-leader hop distance; used as an
    ablation against the NW policy.  Note that with this policy a level-k
    leader is generally *not* a level-(k+1) leader, so the self-message
    optimization of the quad-tree program does not apply.
    """

    def leader_of_block(
        self, block_corner: GridCoord, level: int, branching: int
    ) -> GridCoord:
        offset = (branching**level - 1) // 2
        return (block_corner[0] + offset, block_corner[1] + offset)


class RandomLeaderPolicy(LeaderPolicy):
    """Deterministic pseudo-random member of each block leads.

    A seeded hash of (block corner, level) picks the member, so the policy
    is a pure function of coordinates — the property the middleware
    requires — while behaving like an arbitrary assignment for the
    energy-balance ablation.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    def leader_of_block(
        self, block_corner: GridCoord, level: int, branching: int
    ) -> GridCoord:
        side = branching**level
        h = hash((self.seed, block_corner, level)) & 0x7FFFFFFF
        dx = h % side
        dy = (h // side) % side
        return (block_corner[0] + dx, block_corner[1] + dy)


class HierarchicalGroups:
    """The group-formation middleware over an :class:`OrientedGrid`.

    Parameters
    ----------
    grid:
        The virtual grid topology.
    branching:
        Side growth factor per level (the paper's blocks are 2x2 at level
        1, i.e. ``branching=2``, giving quadrants — matching the quad-tree
        case study).
    policy:
        Leader placement policy; defaults to the paper's north-west rule.
    """

    def __init__(
        self,
        grid: OrientedGrid,
        branching: int = 2,
        policy: Optional[LeaderPolicy] = None,
    ):
        if branching < 2:
            raise ValueError(f"branching must be >= 2, got {branching}")
        self.grid = grid
        self.branching = branching
        self.policy = policy or NorthWestLeaderPolicy()
        self._max_level = self._compute_max_level()
        # the grid and policy are immutable, so leader lookups memoize;
        # profiling shows leader() dominating synthesis/execution otherwise
        self._leader_cache: Dict[Tuple[GridCoord, int], GridCoord] = {}

    def _compute_max_level(self) -> int:
        level = 0
        side = 1
        while side * self.branching <= max(self.grid.width, self.grid.height):
            side *= self.branching
            level += 1
        return level

    def __repr__(self) -> str:
        return (
            f"HierarchicalGroups(grid={self.grid!r}, branching={self.branching}, "
            f"policy={self.policy.name()}, max_level={self.max_level})"
        )

    # -- structure -----------------------------------------------------------

    @property
    def max_level(self) -> int:
        """Highest hierarchy level with blocks no larger than the grid."""
        return self._max_level

    def block_side(self, level: int) -> int:
        """Side length (in grid nodes) of a level-``level`` block."""
        self._check_level(level)
        return self.branching**level

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.max_level:
            raise ValueError(
                f"level must be in [0, {self.max_level}], got {level}"
            )

    def block_corner(self, coord: GridCoord, level: int) -> GridCoord:
        """NW corner of the level-``level`` block containing ``coord``."""
        self.grid.validate_member(coord)
        self._check_level(level)
        return block_leader(coord, level, self.branching)

    def leader(self, coord: GridCoord, level: int) -> GridCoord:
        """The level-``level`` leader responsible for ``coord``.

        With the paper's NW policy this is the block corner itself; other
        policies may place the leader elsewhere in the block.
        """
        key = (coord, level)
        cached = self._leader_cache.get(key)
        if cached is not None:
            return cached
        corner = self.block_corner(coord, level)
        chosen = self.policy.leader_of_block(corner, level, self.branching)
        self.grid.validate_member(chosen)
        self._leader_cache[key] = chosen
        return chosen

    def is_leader(self, coord: GridCoord, level: int) -> bool:
        """True iff ``coord`` is a level-``level`` leader."""
        return self.leader(coord, level) == coord

    def leadership_level(self, coord: GridCoord) -> int:
        """The highest level at which ``coord`` leads (>= 0).

        Every node leads at level 0, so the result is always defined.  With
        the NW policy this is monotone: a level-*k* leader leads all levels
        below *k* (the paper: "all level i leaders are also level i-1
        leaders").
        """
        self.grid.validate_member(coord)
        best = 0
        for level in range(1, self.max_level + 1):
            if self.is_leader(coord, level):
                best = max(best, level)
        return best

    def members(self, coord: GridCoord, level: int) -> List[GridCoord]:
        """All members of the level-``level`` group containing ``coord``.

        Members outside the grid (possible only on non-power-of-two grids)
        are excluded.
        """
        corner = self.block_corner(coord, level)
        return [
            m
            for m in block_members(corner, level, self.branching)
            if m in self.grid
        ]

    def followers(self, coord: GridCoord, level: int) -> List[GridCoord]:
        """Group members excluding the leader."""
        lead = self.leader(coord, level)
        return [m for m in self.members(coord, level) if m != lead]

    def leaders_at(self, level: int) -> Iterator[GridCoord]:
        """Iterate all level-``level`` leaders in row-major block order."""
        self._check_level(level)
        side = self.block_side(level)
        for y in range(0, self.grid.height, side):
            for x in range(0, self.grid.width, side):
                yield self.policy.leader_of_block((x, y), level, self.branching)

    def num_groups(self, level: int) -> int:
        """Number of level-``level`` groups partitioning the grid."""
        self._check_level(level)
        side = self.block_side(level)
        nx = -(-self.grid.width // side)
        ny = -(-self.grid.height // side)
        return nx * ny

    def child_leaders(self, leader: GridCoord, level: int) -> List[GridCoord]:
        """The level-``level-1`` leaders inside the level-``level`` block of
        ``leader`` — the "children" of the group in the quad-tree sense.

        For ``branching=2`` these are the four quadrant leaders.
        """
        self._check_level(level)
        if level == 0:
            return []
        corner = self.block_corner(leader, level)
        child_side = self.block_side(level - 1)
        out = []
        for dy in range(self.branching):
            for dx in range(self.branching):
                sub_corner = (
                    corner[0] + dx * child_side,
                    corner[1] + dy * child_side,
                )
                if sub_corner in self.grid:
                    out.append(
                        self.policy.leader_of_block(
                            sub_corner, level - 1, self.branching
                        )
                    )
        return out

    # -- costs (Section 4.2) --------------------------------------------------

    def follower_to_leader_hops(self, coord: GridCoord, level: int) -> int:
        """Hop count from a member to its level-``level`` leader.

        Proportionality constant for the group-communication cost
        ("proportional to the minimum number of hops separating them in
        the virtual network graph, assuming shortest path routing").
        """
        return self.grid.hop_distance(coord, self.leader(coord, level))

    def group_gather_cost(
        self, coord: GridCoord, level: int, units_per_member: float = 1.0
    ) -> Tuple[float, float]:
        """(total hop-units, max hop-units) for every follower of the group
        containing ``coord`` sending ``units_per_member`` to the leader.

        ``total`` drives the energy estimate; ``max`` drives the latency
        estimate of one gather round under shortest-path routing.
        """
        lead = self.leader(coord, level)
        total = 0.0
        worst = 0.0
        for m in self.members(coord, level):
            if m == lead:
                continue
            cost = self.grid.hop_distance(m, lead) * units_per_member
            total += cost
            worst = max(worst, cost)
        return total, worst

    def role_table(self, coord: GridCoord) -> Dict[int, str]:
        """Human-readable role of ``coord`` at every level (for reports)."""
        self.grid.validate_member(coord)
        return {
            level: ("leader" if self.is_leader(coord, level) else "follower")
            for level in range(self.max_level + 1)
        }
