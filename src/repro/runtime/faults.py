"""In-run fault injection and the self-healing fault model (DESIGN.md §10).

The maintenance layer (:mod:`repro.runtime.maintenance`) models churn
*between* application rounds: kill nodes offline, rebuild the stack, run
again.  This module models faults *during* a round — the paper's Section 5.1
observation that the setup protocols "should execute periodically" because
nodes fail while the network operates, and its Section 7 admission that
fault tolerance is the methodology's open issue.

Three pieces:

* :class:`FaultPlan` — a declarative, seed-deterministic schedule of
  mid-run events (``kill_node``, ``kill_leader``, ``partition_links``,
  ``corrupt_frame``, ``restore``).  The :class:`FaultInjector` arms each
  event as a simulator timer, so faults fire at exact virtual times inside
  :meth:`~repro.runtime.stack.DeployedStack.run_application` and a given
  ``(plan, seed)`` pair replays byte-identically.
* :class:`HealingConfig` — parameters of the online recovery machinery in
  :class:`~repro.runtime.routing.TransportProcess`: leader heartbeats,
  miss-threshold suspicion, failover to the deterministic successor (the
  ``(metric, id)``-argmin of the surviving cell members), on-demand route
  repair, and retransmission redirection.
* :class:`FaultReport` — the observability record (injections, detections,
  failovers, reroutes, corrupted vs. rejected frames, orphaned
  deliveries), folded into the run fingerprint so fault runs are
  sweepable and reproducible.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.coords import GridCoord
from ..simulator.trace import stable_digest
from .binding import Binding
from .routing import TRANSPORT_KIND
from .wire import encode_envelope

if TYPE_CHECKING:  # pragma: no cover
    from ..deployment.topology import RealNetwork
    from ..simulator.engine import Simulator
    from ..simulator.network import Packet, WirelessMedium

#: Actions a :class:`FaultEvent` may carry.
FAULT_ACTIONS = (
    "kill_node",
    "kill_leader",
    "partition_links",
    "corrupt_frame",
    "restore",
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``time`` is the virtual time the event fires at.  Interpretation of
    the remaining fields depends on ``action``:

    * ``kill_node`` — kill physical node ``node``;
    * ``kill_leader`` — kill the *current* leader of ``cell`` (resolved at
      fire time, so it tracks failovers);
    * ``partition_links`` — sever every ``(a, b)`` pair in ``links``
      (symmetric) until a ``restore``;
    * ``corrupt_frame`` — mangle the next ``count`` transport frames put
      on the air (one byte of the wire frame flipped, in either mode);
    * ``restore`` — heal all currently blocked links; if ``node`` is
      given, also revive that node.
    """

    time: float
    action: str
    node: Optional[int] = None
    cell: Optional[GridCoord] = None
    links: Tuple[Tuple[int, int], ...] = ()
    count: int = 1

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of {FAULT_ACTIONS}"
            )
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.action == "kill_node" and self.node is None:
            raise ValueError("kill_node requires node=")
        if self.action == "kill_leader" and self.cell is None:
            raise ValueError("kill_leader requires cell=")
        if self.action == "partition_links" and not self.links:
            raise ValueError("partition_links requires a non-empty links=")
        if self.action == "corrupt_frame" and self.count < 1:
            raise ValueError(f"corrupt_frame count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable schedule of :class:`FaultEvent`\\ s."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=lambda e: (e.time, e.action)))
        )

    def __bool__(self) -> bool:
        return bool(self.events)

    def fingerprint(self) -> str:
        """Stable digest of the schedule (folds into run fingerprints)."""
        return stable_digest(tuple(dataclasses.astuple(e) for e in self.events))

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Plain-dict form (sweep params / JSON grids)."""
        out = []
        for e in self.events:
            d: Dict[str, Any] = {"time": e.time, "action": e.action}
            if e.node is not None:
                d["node"] = e.node
            if e.cell is not None:
                d["cell"] = list(e.cell)
            if e.links:
                d["links"] = [list(pair) for pair in e.links]
            if e.count != 1:
                d["count"] = e.count
            out.append(d)
        return out

    @classmethod
    def from_dicts(cls, specs: Iterable[Dict[str, Any]]) -> "FaultPlan":
        """Inverse of :meth:`to_dicts` (tolerates lists where tuples go)."""
        events = []
        for spec in specs:
            cell = spec.get("cell")
            links = spec.get("links", ())
            events.append(
                FaultEvent(
                    time=float(spec["time"]),
                    action=str(spec["action"]),
                    node=spec.get("node"),
                    cell=None if cell is None else (int(cell[0]), int(cell[1])),
                    links=tuple((int(a), int(b)) for a, b in links),
                    count=int(spec.get("count", 1)),
                )
            )
        return cls(events=tuple(events))


def plan_chaos(
    cells: Sequence[GridCoord],
    links: Sequence[Tuple[int, int]] = (),
    kills: int = 1,
    at: float = 0.5,
    spacing: float = 1.0,
    corrupt_frames: int = 0,
    partition_at: Optional[float] = None,
    restore_at: Optional[float] = None,
    seed: int = 0,
) -> FaultPlan:
    """A seeded fault schedule: leader kills, a partition, corruption.

    Kills ``kills`` distinct cell leaders (victims drawn without
    replacement from ``sorted(cells)`` with
    ``np.random.default_rng(seed)``) at ``at, at + spacing, ...``;
    optionally severs ``links`` at ``partition_at`` and heals them at
    ``restore_at``; optionally corrupts the first ``corrupt_frames``
    transport frames.  A leader storm is the kills alone, usually with
    ``spacing=0.05``.  A pure function of its arguments, so fault
    campaigns replay byte-identically.
    """
    if kills < 0:
        raise ValueError(f"kills must be >= 0, got {kills}")
    ordered = sorted(set(cells))
    if kills > len(ordered):
        raise ValueError(f"cannot kill {kills} leaders out of {len(ordered)} cells")
    if partition_at is not None and not links:
        raise ValueError("partition_at requires a non-empty links=")
    if restore_at is not None and partition_at is None:
        raise ValueError("restore_at requires partition_at=")
    if restore_at is not None and restore_at <= partition_at:
        raise ValueError(
            f"restore_at must be > partition_at, "
            f"got {restore_at} <= {partition_at}"
        )
    events = []
    if kills:
        rng = np.random.default_rng(seed)
        victims = [
            ordered[i] for i in rng.choice(len(ordered), size=kills, replace=False)
        ]
        events.extend(
            FaultEvent(time=at + i * spacing, action="kill_leader", cell=cell)
            for i, cell in enumerate(victims)
        )
    if partition_at is not None:
        pairs = tuple((int(a), int(b)) for a, b in links)
        events.append(
            FaultEvent(time=partition_at, action="partition_links", links=pairs)
        )
        if restore_at is not None:
            events.append(FaultEvent(time=restore_at, action="restore"))
    if corrupt_frames > 0:
        events.append(
            FaultEvent(time=0.0, action="corrupt_frame", count=corrupt_frames)
        )
    return FaultPlan(events=tuple(events))


@dataclass
class HealingConfig:
    """Parameters of the online self-healing machinery.

    A leader heartbeats every ``heartbeat_interval``; a member that hears
    none for ``miss_threshold`` intervals suspects it.  The failover
    successor is the ``(metric, id)``-argmin of the surviving cell
    members under the metric the binding was elected by
    (:attr:`~repro.runtime.binding.Binding.metric`), i.e. exactly the node
    a fresh election would pick.  ``horizon`` bounds the heartbeat/watch
    timer re-arming so rounds still quiesce — past it the cell is assumed
    stable.  It counts from the moment a round arms healing
    (:meth:`~repro.runtime.routing.TransportProcess.arm_healing`): t = 0
    for an application round, each admission round's start for a serving
    engine.
    """

    heartbeat_interval: float = 2.0
    miss_threshold: int = 3
    horizon: float = 200.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if self.miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        if self.horizon <= 0:
            raise ValueError("horizon must be > 0")


@dataclass
class FaultReport:
    """What happened, observed from both sides of the fault line.

    ``injected`` records events as they actually fired (time, action,
    resolved target); ``failovers`` records ``(time, cell, old_leader,
    new_leader)`` tuples.  :meth:`fingerprint` digests the whole record,
    so two runs with identical reports (and identical traffic) produce
    identical run fingerprints.
    """

    injected: List[Tuple[float, str, Any]] = field(default_factory=list)
    detected_failures: int = 0
    failovers: List[Tuple[float, GridCoord, int, int]] = field(default_factory=list)
    reroutes: int = 0
    redirected_retransmissions: int = 0
    frames_corrupted: int = 0
    frames_rejected: int = 0
    orphaned_deliveries: int = 0

    def fingerprint(self) -> str:
        return stable_digest(
            (
                tuple(self.injected),
                self.detected_failures,
                tuple(self.failovers),
                self.reroutes,
                self.redirected_retransmissions,
                self.frames_corrupted,
                self.frames_rejected,
                self.orphaned_deliveries,
            )
        )


class FaultInjector:
    """Arms a :class:`FaultPlan` on a simulator and executes its events.

    Events are scheduled with fire-and-forget timers before the run
    starts, so they occupy deterministic positions in the event order and
    never consume medium RNG draws.  Frame corruption installs a
    ``tx_transform`` on the medium that mangles the next *n* transport
    frames: it puts the frame on the air with one byte flipped (an
    object-mode envelope is encoded first), so the receiver's frame
    validation rejects it whatever ``wire_format`` says.
    """

    def __init__(
        self,
        plan: FaultPlan,
        network: "RealNetwork",
        binding: Binding,
        report: FaultReport,
    ):
        self.plan = plan
        self.network = network
        self.binding = binding
        self.report = report
        self._corrupt_budget = 0
        self._blocked: List[Tuple[int, int]] = []
        self._medium: "Optional[WirelessMedium]" = None

    def arm(self, sim: "Simulator", medium: "WirelessMedium") -> None:
        """Schedule every event; call after processes boot, before run."""
        self._medium = medium
        if any(e.action == "corrupt_frame" for e in self.plan.events):
            medium.tx_transform = self._maybe_corrupt
        for event in self.plan.events:
            # pre-run now == 0, so relative delay == absolute fire time
            sim.schedule(event.time, self._fire, event)

    # -- event execution ---------------------------------------------------------

    def _fire(self, event: FaultEvent) -> None:
        getattr(self, f"_do_{event.action}")(event)

    def _log(self, event: FaultEvent, target: Any) -> None:
        self.report.injected.append((event.time, event.action, target))

    def _kill(self, nid: int) -> None:
        node = self.network.node(nid)
        if node.alive:
            node.kill()

    def _do_kill_node(self, event: FaultEvent) -> None:
        assert event.node is not None
        self._kill(event.node)
        self._log(event, event.node)

    def _do_kill_leader(self, event: FaultEvent) -> None:
        assert event.cell is not None
        leader = self.binding.leaders.get(event.cell)
        if leader is not None:
            self._kill(leader)
        self._log(event, (event.cell, -1 if leader is None else leader))

    def _do_partition_links(self, event: FaultEvent) -> None:
        assert self._medium is not None
        for a, b in event.links:
            self._medium.block_link(a, b)
            self._blocked.append((a, b))
        self._log(event, event.links)

    def _do_restore(self, event: FaultEvent) -> None:
        assert self._medium is not None
        for a, b in self._blocked:
            self._medium.unblock_link(a, b)
        restored_links = tuple(self._blocked)
        self._blocked.clear()
        if event.node is not None:
            node = self.network.node(event.node)
            if not node.alive:
                node.revive()
        self._log(event, (restored_links, event.node))

    def _do_corrupt_frame(self, event: FaultEvent) -> None:
        self._corrupt_budget += event.count
        self._log(event, event.count)

    # -- frame corruption --------------------------------------------------------

    def _maybe_corrupt(self, packet: "Packet") -> "Packet":
        if self._corrupt_budget <= 0 or packet.kind != TRANSPORT_KIND:
            return packet
        self._corrupt_budget -= 1
        payload = packet.payload
        buf = bytearray(
            payload if isinstance(payload, (bytes, bytearray)) else encode_envelope(payload)
        )
        # deterministic position, varied across corruptions; one flipped
        # byte always fails the magic or the CRC check
        buf[(self.report.frames_corrupted * 7) % len(buf)] ^= 0xFF
        self.report.frames_corrupted += 1
        return dataclasses.replace(packet, payload=bytes(buf))

