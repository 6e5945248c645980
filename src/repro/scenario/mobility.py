"""Node mobility: scheduled re-homing between cells (DESIGN.md §14).

The paper's world is static; a mature WSN harness moves nodes.  A
:class:`MobilityModel` is a declarative, fingerprinted schedule of
:class:`Move` events — each re-homes one node to an explicit waypoint or
to the centre of a target cell at an exact virtual time.  Moves are armed
as fire-and-forget simulator timers before the run starts (the
:class:`~repro.runtime.faults.FaultPlan` discipline), so they occupy
deterministic event-order positions and never consume medium RNG draws.

A move is *physics*: :meth:`RealNetwork.move_node` rewrites the node's
position, cell membership, and unit-disk adjacency, and bumps the
liveness generation so every cached view (alive neighbours, cell members,
repair throttles, link-gate probabilities) rebuilds lazily.  The runtime
consequences then flow through the PR 5 self-healing path — a leader that
wandered off stops heartbeating in its old cell, the watchers time out,
the deterministic successor takes over, and the gradient repairs — which
is exactly why mobility runs force a :class:`HealingConfig` on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.coords import GridCoord
from ..simulator.trace import stable_digest


@dataclass(frozen=True)
class Move:
    """One scheduled relocation.

    ``cell`` re-homes the node to that cell's centre; an explicit
    ``position`` waypoint wins if both are given (the destination cell is
    then derived from the position).
    """

    time: float
    node: int
    cell: Optional[GridCoord] = None
    position: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"move time must be >= 0, got {self.time}")
        if self.cell is None and self.position is None:
            raise ValueError("a Move needs cell= or position=")
        if self.cell is not None:
            object.__setattr__(self, "cell", (int(self.cell[0]), int(self.cell[1])))
        if self.position is not None:
            object.__setattr__(
                self, "position", (float(self.position[0]), float(self.position[1]))
            )


@dataclass(frozen=True)
class MobilityModel:
    """An ordered, immutable schedule of :class:`Move`\\ s."""

    moves: Tuple[Move, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "moves", tuple(sorted(self.moves, key=lambda m: (m.time, m.node)))
        )

    def __bool__(self) -> bool:
        return bool(self.moves)

    def fingerprint(self) -> str:
        """Stable digest of the schedule (folds into run fingerprints)."""
        return stable_digest(tuple(dataclasses.astuple(m) for m in self.moves))

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Plain-dict form (sweep params / JSON grids)."""
        out = []
        for m in self.moves:
            d: Dict[str, Any] = {"time": m.time, "node": m.node}
            if m.cell is not None:
                d["cell"] = list(m.cell)
            if m.position is not None:
                d["position"] = list(m.position)
            out.append(d)
        return out

    @classmethod
    def from_dicts(cls, specs: Iterable[Dict[str, Any]]) -> "MobilityModel":
        """Inverse of :meth:`to_dicts` (tolerates lists where tuples go)."""
        moves = []
        for spec in specs:
            cell = spec.get("cell")
            position = spec.get("position")
            moves.append(
                Move(
                    time=float(spec["time"]),
                    node=int(spec["node"]),
                    cell=None if cell is None else (int(cell[0]), int(cell[1])),
                    position=None
                    if position is None
                    else (float(position[0]), float(position[1])),
                )
            )
        return cls(moves=tuple(moves))


def plan_cell_hops(
    nodes: Sequence[int],
    cells: Sequence[GridCoord],
    hops: int,
    at: float = 0.5,
    spacing: float = 0.05,
    seed: int = 0,
) -> MobilityModel:
    """A seeded plan hopping ``hops`` distinct nodes to random cells.

    Movers are drawn without replacement from ``sorted(nodes)`` and
    destinations with replacement from ``sorted(cells)`` using
    ``np.random.default_rng(seed)``, so the plan is a pure function of its
    arguments.  Hops land at ``at, at + spacing, ...``.
    """
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    pool = sorted(set(nodes))
    targets = sorted(set(cells))
    if hops > len(pool):
        raise ValueError(f"cannot move {hops} distinct nodes out of {len(pool)}")
    if not targets:
        raise ValueError("plan_cell_hops needs a non-empty cells=")
    rng = np.random.default_rng(seed)
    movers = [pool[i] for i in rng.choice(len(pool), size=hops, replace=False)]
    dests = [targets[int(i)] for i in rng.integers(0, len(targets), size=hops)]
    moves = tuple(
        Move(time=at + i * spacing, node=nid, cell=cell)
        for i, (nid, cell) in enumerate(zip(movers, dests))
    )
    return MobilityModel(moves=moves)
