"""Per-node reactive processes.

Each physical node runs a :class:`Process`: a reactive object with
``on_start`` / ``on_packet`` / ``on_timer`` hooks, mirroring the
event-driven programming model the paper synthesizes to (Section 4.3).
The :class:`ProcessHost` owns the processes of a whole network, is the
packet sink of their :class:`~repro.simulator.network.WirelessMedium`,
and provides the timer facility.

Protocol implementations (``repro.runtime``) subclass :class:`Process`;
the full-stack executor additionally hosts the *synthesized rule programs*
inside a process on elected leader nodes.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Hashable

from .engine import Simulator
from .network import Packet, WirelessMedium


class Process(abc.ABC):
    """Base class for node-resident protocol logic.

    Subclasses implement the reactive hooks; the host injects ``sim``,
    ``medium``, and ``node_id`` before :meth:`on_start` runs, so hooks can
    freely use the transmission and timer helpers.
    """

    __slots__ = ("sim", "medium", "node_id", "_armed_timers", "_timer_stamp")

    sim: Simulator
    medium: WirelessMedium
    node_id: int

    def __init__(self) -> None:
        self._reset_timers()

    def _reset_timers(self) -> None:
        """Start an empty timer registry, for a process about to be hosted
        in a new world (the previous world's queued events are gone, so
        unlike :meth:`cancel_timers` this leaves every simulator alone)."""
        # tag -> stamp of the currently armed timer; stamps come from a
        # per-process monotone counter so a stale queued event can never
        # alias a later re-arm of the same tag
        self._armed_timers: Dict[Hashable, int] = {}
        self._timer_stamp = 0

    # -- lifecycle hooks -----------------------------------------------------

    def on_start(self) -> None:
        """Called once when the host starts the simulation."""

    def on_packet(self, packet: Packet) -> None:
        """Called on every packet arrival addressed to (or overheard by)
        this node."""

    def on_timer(self, tag: Any) -> None:
        """Called when a timer set via :meth:`set_timer` expires."""

    # -- helpers ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.sim.now

    @property
    def alive(self) -> bool:
        """Whether the underlying physical node is alive."""
        return self.medium.network.node(self.node_id).alive

    def broadcast(self, kind: str, payload: Any, size_units: float = 1.0) -> int:
        """Radio-broadcast to all one-hop neighbours."""
        return self.medium.broadcast(self.node_id, kind, payload, size_units)

    def unicast(
        self, dst: int, kind: str, payload: Any, size_units: float = 1.0
    ) -> bool:
        """Addressed transmission to one neighbour."""
        return self.medium.unicast(self.node_id, dst, kind, payload, size_units)

    def set_timer(self, delay: float, tag: Hashable = None) -> Hashable:
        """Schedule :meth:`on_timer` after ``delay``; returns ``tag``.

        Timers are tag-indexed: at most one timer per ``tag`` is armed, and
        re-arming a tag supersedes (cancels) the previous timer.  Cancel
        with :meth:`cancel_timer` / :meth:`cancel_timers`.  Arming,
        firing, and cancelling are dictionary operations on a
        generation-stamped registry (tags must be hashable); these timers
        are the only cancellable events of the engine.
        """
        armed = self._armed_timers
        if tag in armed:
            # the superseded timer's heap entry is now dead weight
            self.sim.discount_cancelled()
        self._timer_stamp += 1
        stamp = self._timer_stamp
        armed[tag] = stamp
        self.sim.schedule_timer(delay, armed, tag, stamp, self._fire_timer, tag)
        return tag

    def _fire_timer(self, tag: Any) -> None:
        if self.alive:
            self.on_timer(tag)

    def cancel_timer(self, tag: Hashable = None) -> bool:
        """Cancel the armed timer of ``tag`` (False if none was armed)."""
        if self._armed_timers.pop(tag, None) is None:
            return False
        self.sim.discount_cancelled()
        return True

    def cancel_timers(self) -> None:
        """Cancel every outstanding timer of this process."""
        armed = self._armed_timers
        if armed:
            self.sim.discount_cancelled(len(armed))
            armed.clear()


class ProcessHost:
    """Binds one :class:`Process` to every node of a network.

    The host installs itself as the medium's packet sink: a copy that
    reaches a node goes to the process the node hosts, if any.

    Parameters
    ----------
    sim, medium:
        The engine and channel the processes share.
    """

    def __init__(self, sim: Simulator, medium: WirelessMedium):
        self.sim = sim
        self.medium = medium
        self.processes: Dict[int, Process] = {}
        medium.receive = self._receive

    def add(self, node_id: int, process: Process) -> Process:
        """Install ``process`` on ``node_id``, whose packets it gets from
        then on; a process that first acts mid-run is added after
        :meth:`start`."""
        if node_id in self.processes:
            raise ValueError(f"node {node_id} already hosts a process")
        process.sim = self.sim
        process.medium = self.medium
        process.node_id = node_id
        self.processes[node_id] = process
        return process

    def add_all(self, factory) -> None:
        """Install ``factory(node_id)`` on every alive node."""
        for nid in self.medium.network.alive_ids():
            self.add(nid, factory(nid))

    def _receive(self, node_id: int, packet: Packet) -> None:
        process = self.processes.get(node_id)
        if process is not None:
            process.on_packet(packet)

    def start(self) -> None:
        """Schedule the ``on_start`` of every process the host holds at
        t=now, in node-id order.  Boot events are plain, uncancellable
        events."""
        for nid, proc in sorted(self.processes.items()):
            self.sim.schedule(0.0, self._boot, nid, proc)

    def teardown(self) -> None:
        """End the run: clear the medium's sink, unbind every hosted
        process and drop queued events.

        The medium holds its sink (a bound method, so its host and
        through it every process) and each process holds the medium; a
        run cut off at ``max_events`` also leaves queued events holding
        both.  Breaking those cycles lets a finished world be freed by
        reference counting instead of waiting for a full garbage
        collection.  A process can outlive its run (a deployed stack hosts
        the same ones round after round), so its ``sim`` and ``medium`` are
        unbound too.  :attr:`processes` stays readable for post-run
        inspection.
        """
        self.medium.receive = None
        for process in self.processes.values():
            del process.sim, process.medium
        self.sim.clear()

    def _boot(self, node_id: int, process: Process) -> None:
        if self.medium.network.node(node_id).alive:
            process.on_start()

    def get(self, node_id: int) -> Process:
        """The process installed on ``node_id``."""
        return self.processes[node_id]
