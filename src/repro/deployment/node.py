"""Physical sensor nodes.

The paper assumes *"n identical sensor nodes"* each with a short-range
omnidirectional antenna, knowledge of its own ``(x, y)`` coordinates (from
localization, assumed done), and knowledge of the terrain boundary.  A
:class:`SensorNode` carries that state plus a residual-energy account used
by the lifetime metrics and by the "querying residual energy levels"
application of Section 3.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .terrain import Point


class NodeDeadError(RuntimeError):
    """Raised when energy is drawn from a node whose battery is exhausted."""


@dataclass
class SensorNode:
    """One physical sensor node.

    Attributes
    ----------
    node_id:
        Unique integer identity (used for deterministic tie-breaking in
        the distributed protocols).
    position:
        Terrain coordinates ``(x, y)``; known to the node via localization.
    tx_range:
        Transmission range ``r`` in terrain units.
    initial_energy:
        Battery capacity in energy units; ``math.inf``-like large default
        keeps protocol studies unconstrained unless lifetime matters.
    """

    node_id: int
    position: Point
    tx_range: float
    initial_energy: float = 1e9
    alive: bool = True
    _consumed: float = field(default=0.0, repr=False)
    #: set by the owning RealNetwork; invoked on every liveness flip so
    #: cached alive-neighbour views can be invalidated without scanning
    _on_liveness_change: Optional[Callable[[], None]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError(f"node_id must be non-negative, got {self.node_id}")
        if self.tx_range <= 0:
            raise ValueError(f"tx_range must be positive, got {self.tx_range}")
        if self.initial_energy <= 0:
            raise ValueError(
                f"initial_energy must be positive, got {self.initial_energy}"
            )

    @property
    def x(self) -> float:
        """East-west coordinate."""
        return self.position[0]

    @property
    def y(self) -> float:
        """North-south coordinate (grows southward)."""
        return self.position[1]

    @property
    def residual_energy(self) -> float:
        """Remaining battery charge."""
        return max(0.0, self.initial_energy - self._consumed)

    @property
    def consumed_energy(self) -> float:
        """Total energy drawn so far."""
        return self._consumed

    def draw(self, amount: float) -> None:
        """Consume ``amount`` energy units; kills the node at depletion.

        Raises :class:`NodeDeadError` if the node is already dead —
        callers (the simulator) are expected to check :attr:`alive` before
        charging a dead node for activity it cannot perform.
        """
        if amount < 0:
            raise ValueError(f"cannot draw negative energy ({amount})")
        if not self.alive:
            raise NodeDeadError(f"node {self.node_id} is dead")
        self._consumed += amount
        if self._consumed >= self.initial_energy:
            self.alive = False
            self._notify_liveness()

    def kill(self) -> None:
        """Fail the node immediately (fault injection)."""
        if self.alive:
            self.alive = False
            self._notify_liveness()

    def revive(self, energy: Optional[float] = None) -> None:
        """Bring the node back (node-addition / maintenance studies).

        Resets consumption; ``energy`` replaces the battery capacity if
        given.
        """
        if energy is not None:
            if energy <= 0:
                raise ValueError("replacement energy must be positive")
            self.initial_energy = energy
        self._consumed = 0.0
        if not self.alive:
            self.alive = True
            self._notify_liveness()

    def _notify_liveness(self) -> None:
        if self._on_liveness_change is not None:
            self._on_liveness_change()
