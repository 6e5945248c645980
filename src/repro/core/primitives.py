"""Programming primitives of the virtual architecture (Sections 2, 3.2).

*"The virtual architecture specifies the computation and communication
primitives available to the programmer.  These primitives could be for the
individual node or for a set of nodes (collective).  Communication
primitives could range from the simple send() and receive() message passing
primitives to more sophisticated ones for group communication.  Computation
primitives could include summing, sorting, or ranking a set of data values
from a set of sensor nodes."*

This module provides both flavours against the design-time grid:

* **Node primitives** — :meth:`PrimitiveEnvironment.send`, addressed to any
  grid coordinate, and :meth:`PrimitiveEnvironment.send_to_leader`, which
  addresses "a level-i leader as a logical entity" (Section 3.2).  Each
  call is charged to the cost model and queued for delivery, so simple
  algorithms can be written directly against the primitives without the
  rule-program machinery.
* **Collective primitives** — gather/broadcast/reduce over a hierarchical
  group, in the spirit of the UW-API the related-work section discusses.
  Collectives return a :class:`CollectiveReport` with energy/latency so an
  algorithm designer can compose first-order estimates.

The implementation of every primitive is transparent to the end user, who
is "aware only of their functionality and associated costs" — the
simulated/deployed implementations in ``repro.runtime`` realize the same
semantics over the physical network.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from .coords import GridCoord
from .cost_model import CostModel, EnergyLedger, UniformCostModel
from .groups import HierarchicalGroups
from .network_model import OrientedGrid


@dataclass
class Envelope:
    """A delivered primitive-level message: sender, payload, size."""

    sender: GridCoord
    payload: Any
    size_units: float = 1.0


@dataclass
class CollectiveReport:
    """Cost summary of one collective operation.

    ``latency`` is the slowest member's path latency (members act in
    parallel); ``energy`` the network total; ``messages`` the logical
    message count.
    """

    latency: float
    energy: float
    messages: int


class PrimitiveEnvironment:
    """Design-time realization of the primitives over an oriented grid.

    Messages are relayed along XY shortest paths; each hop is charged
    tx + rx on the ledger.  Delivery is immediate in program order (the
    design-time environment models cost, not interleaving — use the
    simulator backends for timing-sensitive studies).

    Parameters
    ----------
    grid:
        The virtual topology.
    groups:
        Group middleware for the leader-addressed and collective
        primitives; constructed with defaults if omitted.
    cost_model:
        Defaults to the paper's uniform model.
    """

    def __init__(
        self,
        grid: OrientedGrid,
        groups: Optional[HierarchicalGroups] = None,
        cost_model: Optional[CostModel] = None,
    ):
        self.grid = grid
        self.groups = groups or HierarchicalGroups(grid)
        if self.groups.grid is not grid and self.groups.grid != grid:
            raise ValueError("groups middleware must be built on the same grid")
        self.cost_model = cost_model or UniformCostModel()
        self.ledger = EnergyLedger()
        self._inboxes: Dict[GridCoord, Deque[Envelope]] = {}
        self.messages_sent = 0

    # -- node primitives -------------------------------------------------------

    def send(
        self,
        src: GridCoord,
        dst: GridCoord,
        payload: Any,
        size_units: float = 1.0,
    ) -> float:
        """Point-to-point ``send()``: relay ``payload`` from ``src`` to
        ``dst`` along the XY route, charging every hop.  Returns the path
        latency of the transfer."""
        self.grid.validate_member(src)
        self.grid.validate_member(dst)
        if size_units < 0:
            raise ValueError("size_units must be non-negative")
        path = self.grid.route(src, dst)
        latency = self.cost_model.charge_path(self.ledger, path, size_units)
        self._inboxes.setdefault(dst, deque()).append(
            Envelope(sender=src, payload=payload, size_units=size_units)
        )
        self.messages_sent += 1
        return latency

    def send_to_leader(
        self,
        src: GridCoord,
        level: int,
        payload: Any,
        size_units: float = 1.0,
    ) -> float:
        """Group-communication primitive: address the level-``level``
        leader of ``src``'s group as a logical entity (Section 3.2)."""
        dst = self.groups.leader(src, level)
        return self.send(src, dst, payload, size_units)

    def receive(self, node: GridCoord) -> Optional[Envelope]:
        """``receive()``: pop the oldest pending envelope at ``node``
        (None when the inbox is empty — the asynchronous model never
        blocks)."""
        self.grid.validate_member(node)
        inbox = self._inboxes.get(node)
        if not inbox:
            return None
        return inbox.popleft()

    def pending(self, node: GridCoord) -> int:
        """Number of undelivered envelopes queued at ``node``."""
        return len(self._inboxes.get(node, ()))

    # -- collective primitives ----------------------------------------------------

    def gather_to_leader(
        self,
        member: GridCoord,
        level: int,
        value_of: Callable[[GridCoord], Any],
        size_units: float = 1.0,
    ) -> Tuple[List[Envelope], CollectiveReport]:
        """All followers of the level-``level`` group containing ``member``
        send their value to the leader; returns the leader's envelopes
        (own value included, zero-cost) and the cost report."""
        leader = self.groups.leader(member, level)
        latency = 0.0
        energy_before = self.ledger.total
        count = 0
        for m in self.groups.members(member, level):
            if m == leader:
                self._inboxes.setdefault(leader, deque()).append(
                    Envelope(sender=m, payload=value_of(m), size_units=0.0)
                )
                continue
            latency = max(latency, self.send(m, leader, value_of(m), size_units))
            count += 1
        envelopes = list(self._inboxes[leader])
        self._inboxes[leader].clear()
        return envelopes, CollectiveReport(
            latency=latency,
            energy=self.ledger.total - energy_before,
            messages=count,
        )

    def broadcast_from_leader(
        self,
        member: GridCoord,
        level: int,
        payload: Any,
        size_units: float = 1.0,
    ) -> CollectiveReport:
        """The leader of the level-``level`` group sends ``payload`` to
        every follower (unicast per member over the grid — the design-time
        cost; radio broadcast optimizations belong to the runtime)."""
        leader = self.groups.leader(member, level)
        latency = 0.0
        energy_before = self.ledger.total
        count = 0
        for m in self.groups.members(member, level):
            if m == leader:
                continue
            latency = max(latency, self.send(leader, m, payload, size_units))
            count += 1
        return CollectiveReport(
            latency=latency,
            energy=self.ledger.total - energy_before,
            messages=count,
        )

    def barrier(
        self,
        member: GridCoord,
        level: int,
        size_units: float = 1.0,
    ) -> CollectiveReport:
        """Barrier synchronization across a hierarchical group.

        The related-work UW-API supports *"barrier synchronization for the
        sensor nodes that lie within a region"*; on the virtual
        architecture a barrier is a gather of empty tokens to the leader
        followed by a release broadcast.  Returns the combined cost; the
        latency is the time by which every member has observed the
        release.
        """
        leader = self.groups.leader(member, level)
        energy_before = self.ledger.total
        up_latency = 0.0
        messages = 0
        for m in self.groups.members(member, level):
            if m == leader:
                continue
            up_latency = max(up_latency, self.send(m, leader, None, size_units))
            self.receive(leader)  # tokens carry no payload
            messages += 1
        down = self.broadcast_from_leader(member, level, None, size_units)
        # drain the release tokens
        for m in self.groups.members(member, level):
            if m != leader:
                self.receive(m)
        return CollectiveReport(
            latency=up_latency + down.latency,
            energy=self.ledger.total - energy_before,
            messages=messages + down.messages,
        )

    def reduce_to_leader(
        self,
        member: GridCoord,
        level: int,
        value_of: Callable[[GridCoord], float],
        combine: Callable[[float, float], float],
        size_units: float = 1.0,
    ) -> Tuple[float, CollectiveReport]:
        """Hierarchical reduction within one group: values flow up the
        sub-hierarchy level by level, combined at every intermediate
        leader (the energy-efficient counterpart of a flat gather).

        Returns ``(reduced value, report)``.
        """
        cm = self.cost_model
        top_leader = self.groups.leader(member, level)
        energy_before = self.ledger.total
        messages = 0
        latency_at: Dict[GridCoord, float] = {}
        value_at: Dict[GridCoord, float] = {}
        for m in self.groups.members(member, level):
            value_at[m] = value_of(m)
            latency_at[m] = 0.0

        for k in range(1, level + 1):
            # group current holders by their level-k leader
            by_leader: Dict[GridCoord, List[GridCoord]] = {}
            for h in value_at:
                by_leader.setdefault(self.groups.leader(h, k), []).append(h)
            next_value: Dict[GridCoord, float] = {}
            next_latency: Dict[GridCoord, float] = {}
            for lead, holders in by_leader.items():
                acc: Optional[float] = None
                lat = 0.0
                if lead in value_at:
                    acc = value_at[lead]
                    lat = latency_at[lead]
                for h in holders:
                    if h == lead:
                        continue
                    send_latency = self.send(h, lead, value_at[h], size_units)
                    messages += 1
                    acc = value_at[h] if acc is None else combine(acc, value_at[h])
                    lat = max(lat, latency_at[h] + send_latency)
                    # drain the bookkeeping inbox entry created by send()
                    self.receive(lead)
                assert acc is not None
                next_value[lead] = acc
                next_latency[lead] = lat
            value_at = next_value
            latency_at = next_latency

        return value_at[top_leader], CollectiveReport(
            latency=latency_at[top_leader],
            energy=self.ledger.total - energy_before,
            messages=messages,
        )
