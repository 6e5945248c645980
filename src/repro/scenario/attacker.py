"""Eavesdropping pursuit adversary — source-location privacy (DESIGN.md §14).

The classic source-location-privacy threat model (Kamat et al., and the
``Attacker``/``AttackerConfiguration`` split in MBradbury's SLP
simulator): a patient adversary parks at the sink, overhears each radio
delivery to the node it currently sits at, and moves to the transmitter —
hop by hop it walks the reverse data path toward the traffic source.  The
privacy metric is whether (and when) it reaches a source.

Our adversary is *passive and post-hoc*: it must not perturb the run it
observes, or fingerprints would stop matching across execution modes.
The medium keeps a delivery tap — ``(time, transmitter, receiver)``
triples for packet kinds the attacker listens to — and the pursuit is
replayed over the time-sorted tap after the run ends, so the resulting
:class:`AttackerOutcome` is byte-identical with the wire codec on or off
and in any sweep worker.

Cells name positions declaratively: the attacker starts at the arm-time
leader of ``start_cell`` (typically the quad-tree root) and captures when
it reaches the arm-time leader of any ``source_cell``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional, Sequence, Tuple

from ..core.coords import GridCoord
from ..simulator.trace import stable_digest

if TYPE_CHECKING:  # pragma: no cover
    from ..deployment.topology import RealNetwork

#: mirrors repro.runtime.routing.TRANSPORT_KIND (kept literal so the
#: scenario layer stays below the runtime layer in the import graph)
DEFAULT_LISTEN_KINDS: Tuple[str, ...] = ("transport",)


@dataclass(frozen=True)
class AttackerOutcome:
    """The privacy metric: did the pursuit reach a source, and how far?

    ``capture_time`` is ``-1.0`` when no capture happened; ``distance``
    is the final Euclidean distance from the attacker to the nearest
    source node (0.0 on capture), computed from post-run positions.
    """

    captured: bool
    capture_time: float
    moves: int
    final_node: int
    distance: float

    def fingerprint(self) -> str:
        return stable_digest(self.as_tuple())

    def as_tuple(self) -> Tuple[Any, ...]:
        return (self.captured, self.capture_time, self.moves,
                self.final_node, self.distance)

    def metrics(self) -> Dict[str, float]:
        """Flat numeric form for sweep records and bench rows."""
        return {
            "attacker_captured": int(self.captured),
            "attacker_capture_time": self.capture_time,
            "attacker_moves": self.moves,
            "attacker_distance": self.distance,
        }


@dataclass(frozen=True)
class Attacker:
    """Declarative pursuit-adversary configuration.

    ``move_cooldown`` models the adversary's travel time: after a hop it
    ignores overheard deliveries until the cooldown elapses (0 = the
    idealized instantly-moving adversary).
    """

    start_cell: GridCoord
    source_cells: Tuple[GridCoord, ...]
    move_cooldown: float = 0.0
    listen_kinds: Tuple[str, ...] = DEFAULT_LISTEN_KINDS

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "start_cell", (int(self.start_cell[0]), int(self.start_cell[1]))
        )
        object.__setattr__(
            self,
            "source_cells",
            tuple((int(c[0]), int(c[1])) for c in self.source_cells),
        )
        object.__setattr__(self, "listen_kinds", tuple(self.listen_kinds))
        if not self.source_cells:
            raise ValueError("attacker needs at least one source cell")
        if self.move_cooldown < 0:
            raise ValueError(f"move_cooldown must be >= 0, got {self.move_cooldown}")
        if not self.listen_kinds:
            raise ValueError("attacker needs at least one listen kind")

    def fingerprint(self) -> str:
        return stable_digest(
            ("attacker", self.start_cell, self.source_cells,
             self.move_cooldown, self.listen_kinds)
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "start_cell": list(self.start_cell),
            "source_cells": [list(c) for c in self.source_cells],
            "move_cooldown": self.move_cooldown,
            "listen_kinds": list(self.listen_kinds),
        }

    @classmethod
    def from_dict(cls, spec: Dict[str, Any]) -> "Attacker":
        return cls(
            start_cell=tuple(spec["start_cell"]),
            source_cells=tuple(tuple(c) for c in spec["source_cells"]),
            move_cooldown=float(spec.get("move_cooldown", 0.0)),
            listen_kinds=tuple(spec.get("listen_kinds", DEFAULT_LISTEN_KINDS)),
        )

    # -- post-hoc pursuit ----------------------------------------------------------

    def pursue(
        self,
        deliveries: Iterable[Tuple[float, int, int]],
        start_node: Optional[int],
        source_nodes: Sequence[int],
        network: "RealNetwork",
    ) -> AttackerOutcome:
        """Replay the pursuit over a time-sorted delivery tap.

        ``deliveries`` must already be sorted by ``(time, src, receiver)``
        — the canonical order the injector puts the tap in, which makes
        the outcome independent of same-instant event order.
        """
        sources = set(source_nodes)
        if start_node is None or not sources:
            return AttackerOutcome(
                captured=False, capture_time=-1.0, moves=0,
                final_node=-1, distance=-1.0,
            )
        position = start_node
        moves = 0
        ready = 0.0
        captured = position in sources
        capture_time = 0.0 if captured else -1.0
        if not captured:
            for time, src, receiver in deliveries:
                if receiver != position or time < ready or src == position:
                    continue
                position = src
                moves += 1
                ready = time + self.move_cooldown
                if position in sources:
                    captured = True
                    capture_time = time
                    break
        if captured:
            distance = 0.0
        else:
            pos = network.node(position).position
            distance = min(
                math.hypot(
                    pos[0] - network.node(s).position[0],
                    pos[1] - network.node(s).position[1],
                )
                for s in sources
            )
        return AttackerOutcome(
            captured=captured,
            capture_time=capture_time,
            moves=moves,
            final_node=position,
            distance=distance,
        )
