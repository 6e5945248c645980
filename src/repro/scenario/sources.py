"""Duty-cycled traffic sources (DESIGN.md §14).

The paper's applications are query-driven: the root asks, the quad-tree
answers once.  Long-lived deployments instead have *sources* — cells
whose leaders emit periodic field updates (MBradbury's
``SourcePeriodModel``).  A :class:`SourcePeriodModel` declares that duty
cycle: each listed cell's current leader originates one transport
envelope per period toward ``dst_cell``, resolved at fire time so the
traffic follows failovers, mobility re-homing, and takeovers.

Emissions are armed as fire-and-forget timers before the run starts.  A
fire whose cell currently has
no live, bound leader is counted as ``source_skipped`` rather than
silently dropped — duty-cycle accounting is part of the scenario report
and therefore of the run fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

from ..core.coords import GridCoord
from ..simulator.trace import stable_digest


@dataclass(frozen=True)
class SourcePeriodModel:
    """Periodic field-update emissions from the leaders of ``cells``.

    Each cell emits ``count`` updates at ``first, first + period, ...``,
    addressed to ``dst_cell`` (typically the quad-tree root).  The inner
    message uses ``kind`` with payload ``(cell, k)`` so applications can
    recognize and k-index the updates.
    """

    cells: Tuple[GridCoord, ...]
    period: float
    first: float = 0.0
    count: int = 1
    dst_cell: GridCoord = (0, 0)
    size_units: float = 1.0
    kind: str = "field-update"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "cells", tuple((int(c[0]), int(c[1])) for c in self.cells)
        )
        object.__setattr__(
            self, "dst_cell", (int(self.dst_cell[0]), int(self.dst_cell[1]))
        )
        if not self.cells:
            raise ValueError("SourcePeriodModel needs at least one source cell")
        if self.period <= 0:
            raise ValueError(f"period must be > 0, got {self.period}")
        if self.first < 0:
            raise ValueError(f"first must be >= 0, got {self.first}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.size_units <= 0:
            raise ValueError(f"size_units must be > 0, got {self.size_units}")

    def events(self) -> Iterator[Tuple[float, GridCoord, int]]:
        """All ``(time, cell, k)`` emissions in deterministic arming order."""
        for time, cell, k in sorted(
            (self.first + k * self.period, cell, k)
            for cell in self.cells
            for k in range(self.count)
        ):
            yield time, cell, k

    def fingerprint(self) -> str:
        return stable_digest(
            ("sources", self.cells, self.period, self.first, self.count,
             self.dst_cell, self.size_units, self.kind)
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cells": [list(c) for c in self.cells],
            "period": self.period,
            "first": self.first,
            "count": self.count,
            "dst_cell": list(self.dst_cell),
            "size_units": self.size_units,
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, spec: Dict[str, Any]) -> "SourcePeriodModel":
        cells: List[Tuple[int, int]] = [tuple(c) for c in spec["cells"]]
        return cls(
            cells=tuple(cells),
            period=float(spec["period"]),
            first=float(spec.get("first", 0.0)),
            count=int(spec.get("count", 1)),
            dst_cell=tuple(spec.get("dst_cell", (0, 0))),
            size_units=float(spec.get("size_units", 1.0)),
            kind=str(spec.get("kind", "field-update")),
        )
