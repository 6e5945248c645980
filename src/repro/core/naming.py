"""Logical naming service (Sections 2 and 4.2).

*"the end user [thinks] in terms of abstract logical entities such as
events of a specific type"* and, in the design flow, *"if logical naming
service is supported, the group membership can even be determined at run
time"*.

The service binds **names** to membership predicates over virtual-grid
coordinates.  Names come in two flavours:

* **static** — geographic predicates fixed at design time (a rectangle,
  a hierarchy block), resolvable without any data;
* **dynamic** — predicates over runtime state (e.g. ``"feature-nodes"``:
  all PoCs whose reading crossed the query threshold), re-evaluated at
  resolution time, which is exactly the run-time group formation the
  paper describes.

:class:`LogicalNamingService` resolves names to member sets and exposes
cost-accounted group sends through a :class:`PrimitiveEnvironment`, so an
algorithm can address "all feature nodes" as one logical destination.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from .coords import GridCoord
from .network_model import OrientedGrid
from .primitives import CollectiveReport, PrimitiveEnvironment

#: A membership predicate over grid coordinates.
Predicate = Callable[[GridCoord], bool]


class UnknownNameError(KeyError):
    """Raised when resolving a name that was never bound."""


class LogicalNamingService:
    """Name -> membership binding over a virtual grid.

    Parameters
    ----------
    grid:
        The virtual topology whose nodes are being named.
    """

    def __init__(self, grid: OrientedGrid):
        self.grid = grid
        self._bindings: Dict[str, Predicate] = {}

    def bind(self, name: str, predicate: Predicate) -> None:
        """Bind ``name`` to a membership predicate (rebinding replaces)."""
        if not name:
            raise ValueError("name must be non-empty")
        self._bindings[name] = predicate

    def bind_region(self, name: str, x0: int, y0: int, width: int, height: int) -> None:
        """Bind a static geographic region (UW-API-style region naming)."""
        if width <= 0 or height <= 0:
            raise ValueError("region extents must be positive")

        def predicate(coord: GridCoord) -> bool:
            x, y = coord
            return x0 <= x < x0 + width and y0 <= y < y0 + height

        self.bind(name, predicate)

    def unbind(self, name: str) -> None:
        """Remove a binding; raises :class:`UnknownNameError` if absent."""
        if name not in self._bindings:
            raise UnknownNameError(name)
        del self._bindings[name]

    def names(self) -> List[str]:
        """All bound names, sorted."""
        return sorted(self._bindings)

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    def resolve(self, name: str) -> List[GridCoord]:
        """Evaluate the predicate over the grid *now* (runtime membership).

        Dynamic predicates may resolve differently between calls — that is
        the point of determining membership at run time.
        """
        if name not in self._bindings:
            raise UnknownNameError(name)
        predicate = self._bindings[name]
        return [coord for coord in self.grid.nodes() if predicate(coord)]

    def member_count(self, name: str) -> int:
        """Current cardinality of a named group."""
        return len(self.resolve(name))

    # -- cost-accounted logical communication ---------------------------------

    def send_to_group(
        self,
        env: PrimitiveEnvironment,
        src: GridCoord,
        name: str,
        payload: Any,
        size_units: float = 1.0,
    ) -> CollectiveReport:
        """Unicast ``payload`` from ``src`` to every current member of the
        named group (design-time cost: one shortest-path send per member).
        """
        members = self.resolve(name)
        energy_before = env.ledger.total
        latency = 0.0
        count = 0
        for member in members:
            if member == src:
                continue
            latency = max(latency, env.send(src, member, payload, size_units))
            count += 1
        return CollectiveReport(
            latency=latency,
            energy=env.ledger.total - energy_before,
            messages=count,
        )

    def gather_from_group(
        self,
        env: PrimitiveEnvironment,
        collector: GridCoord,
        name: str,
        value_of: Callable[[GridCoord], Any],
        size_units: float = 1.0,
    ) -> Tuple[List[Any], CollectiveReport]:
        """Every current member sends its value to ``collector``.

        Returns the gathered values (collector's own value included free
        if it is a member) and the cost report.
        """
        members = self.resolve(name)
        energy_before = env.ledger.total
        latency = 0.0
        count = 0
        values: List[Any] = []
        for member in members:
            values.append(value_of(member))
            if member == collector:
                continue
            latency = max(
                latency, env.send(member, collector, value_of(member), size_units)
            )
            env.receive(collector)  # drain the bookkeeping inbox entry
            count += 1
        return values, CollectiveReport(
            latency=latency,
            energy=env.ledger.total - energy_before,
            messages=count,
        )
