"""Message transport over the emulated grid.

The user of the virtual architecture addresses *cells* (virtual nodes);
this layer realizes cell-to-cell delivery on the physical network using
the products of the two Section 5 protocols:

* **inter-cell**: XY (dimension-ordered) routing over cells — *"the user
  can choose any routing protocol implemented on the oriented grid using
  the routing table to forward messages between adjacent cells"* — where
  each cell crossing follows the topology-emulation ``RT`` pointers
  (possibly multi-hop within the cell to reach a gateway);
* **intra-cell**: delivery to the cell's bound process (leader) along the
  ``toward_leader`` gradient built during the election.

:class:`TransportProcess` is the per-node forwarding engine; the deployed
application stack subclasses it to hand delivered payloads to the
synthesized rule program.

With a :class:`~repro.runtime.faults.HealingConfig` the engine is
additionally *self-healing* (DESIGN.md §10): leaders emit periodic
heartbeats, members suspect a silent leader after a miss-threshold window
and fail over to the deterministic successor (the ``(metric, id)``-argmin
of the surviving cell members), routing tables and leader gradients are
repaired on demand around dead nodes, and reliable-mode retransmissions
re-resolve their next hop so in-flight envelopes are redirected instead
of dying with the original route.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

from ..core.coords import Direction, GridCoord
from ..simulator.network import Packet
from ..simulator.process import Process
from .binding import Binding
from .topology_emulation import EmulatedTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults imports us)
    from .faults import FaultReport, HealingConfig

#: Packet kind used by the transport layer.
TRANSPORT_KIND = "transport"

#: Packet kind of hop-by-hop acknowledgements (reliable mode).
ACK_KIND = "transport-ack"

#: Packet kind of leader heartbeats (self-healing mode).
HEARTBEAT_KIND = "transport-hb"

#: Packet kind of the takeover flood a failover successor emits.
TAKEOVER_KIND = "transport-takeover"

#: Timer tags of the healing machinery (uid retry timers are 2-tuples).
_HB_TIMER = "hb"
_WATCH_TIMER = "hb-watch"


class CorruptedFrame:
    """A transport frame mangled in flight (object-passing mode).

    The fault injector wraps a packet payload in this sentinel when the
    medium carries Python objects instead of wire bytes, so corruption
    behaves identically with ``wire_format`` on (byte flip, CRC rejects)
    and off (wrapper, receiver rejects): either way the receiver counts
    the frame in :attr:`TransportProcess.rejected_frames` and drops it.
    """

    __slots__ = ("original",)

    def __init__(self, original: Any):
        self.original = original

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CorruptedFrame({self.original!r})"


_MASK64 = (1 << 64) - 1
_SPLITMIX_SEED = 0x9E3779B97F4A7C15
_UNIT_SCALE = float(1 << 53)


def _mix(x: int, part: int) -> int:
    """One splitmix64 round: absorb ``part`` into the 64-bit state ``x``."""
    x = ((x ^ (part & _MASK64)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _stable_unit(*parts: int) -> float:
    """Deterministic hash of integers to ``[0, 1)`` (splitmix64-style).

    Retry jitter must be seeded yet must not consume draws from the shared
    medium RNG (that would perturb the loss/jitter stream of every other
    transmission), so it is derived purely from ``(node, uid, attempt)``.
    """
    x = _SPLITMIX_SEED
    for p in parts:
        x = _mix(x, p)
    return (x >> 11) / _UNIT_SCALE


@dataclass(slots=True)
class TransportEnvelope:
    """A cell-addressed message in flight.

    ``hops`` counts physical transmissions so far (diagnostics); ``inner``
    is the application payload delivered to the destination cell's bound
    process.  ``uid`` identifies the envelope end to end in reliable mode
    (origin node id, origin-local sequence number).
    """

    src_cell: GridCoord
    dst_cell: GridCoord
    inner: Any
    size_units: float = 1.0
    hops: int = 0
    uid: Optional[Tuple[int, int]] = None


def next_direction(src_cell: GridCoord, dst_cell: GridCoord) -> Direction:
    """XY routing decision: first fix x (east/west), then y (north/south)."""
    if src_cell == dst_cell:
        raise ValueError("already at destination cell")
    if dst_cell[0] > src_cell[0]:
        return Direction.EAST
    if dst_cell[0] < src_cell[0]:
        return Direction.WEST
    if dst_cell[1] > src_cell[1]:
        return Direction.SOUTH
    return Direction.NORTH


class TransportProcess(Process):
    """Per-node store-and-forward engine over the emulated topology.

    Parameters
    ----------
    topology:
        Converged routing tables (shared across processes).
    binding:
        Converged leader binding (shared).
    on_deliver:
        Called as ``on_deliver(self, envelope)`` when an envelope reaches
        the bound leader of its destination cell.
    on_drop:
        Called on forwarding failure (missing table entry / dead next
        hop); default counts into :attr:`drops`.
    reliable:
        Enable hop-by-hop ARQ: every forward expects an acknowledgement
        from the next hop and is retransmitted up to ``max_retries``
        times.  Duplicates created by lost acknowledgements are suppressed
        by envelope ``uid``.  This is the natural hardening of the
        Section 4.3 observation that *"some messages might even be
        dropped"* — the synthesized program stays oblivious.
    ack_timeout:
        Base retry interval.  The wait before retry ``k`` is
        ``ack_timeout * backoff_factor**k``, capped at ``backoff_max``
        and stretched by up to ``backoff_jitter`` of itself using a
        deterministic hash of ``(node, uid, attempt)`` — seeded
        exponential backoff that never touches the medium RNG stream.
        ``backoff_factor=1.0`` with ``backoff_jitter=0.0`` recovers the
        legacy fixed interval.
    dedup_window:
        Out-of-order tolerance of the duplicate-suppression state, per
        origin (and, on the forwarding path, per previous hop so a
        post-failover reroute through an old relay is not mistaken for an
        ARQ echo).  Instead of remembering every uid ever seen (unbounded
        memory over long maintenance/churn runs), each key keeps a
        high-water mark plus the set of seen sequence numbers within
        ``dedup_window`` below it; anything older is treated as seen.
        Origins emit sequence numbers monotonically, so a *new* uid can
        only be mistaken for old if it is displaced by more than the
        window — far beyond any ARQ reordering the simulator produces.
    wire_format:
        Encode every hop through the compact binary codec of
        :mod:`repro.runtime.wire`: envelopes (and, in reliable mode,
        acknowledgements) travel the medium as ``bytes`` frames and the
        receive path decodes them back.  Observable behaviour — stats,
        energy, delivery order, fingerprints — is identical to object
        passing.  Undecodable frames (corruption, truncation) are counted
        in :attr:`rejected_frames` and dropped; in reliable mode the
        upstream hop never sees an acknowledgement and retransmits.
    healing:
        A :class:`~repro.runtime.faults.HealingConfig` enables the
        self-healing machinery (heartbeats, failover, route repair,
        retransmission redirection).  ``None`` (default) keeps the
        engine's behaviour byte-identical to the pre-fault-model code on
        fault-free runs.
    fault_report:
        Shared :class:`~repro.runtime.faults.FaultReport` receiving the
        observability counters (detections, failovers, reroutes,
        redirects, rejected frames).
    """

    def __init__(
        self,
        topology: EmulatedTopology,
        binding: Binding,
        on_deliver: Optional[Callable[["TransportProcess", TransportEnvelope], None]] = None,
        on_drop: Optional[Callable[["TransportProcess", TransportEnvelope, str], None]] = None,
        reliable: bool = False,
        max_retries: int = 3,
        ack_timeout: float = 4.0,
        ack_size_units: float = 1.0,
        dedup_window: int = 128,
        wire_format: bool = False,
        backoff_factor: float = 2.0,
        backoff_jitter: float = 0.5,
        backoff_max: Optional[float] = None,
        healing: "Optional[HealingConfig]" = None,
        fault_report: "Optional[FaultReport]" = None,
    ):
        super().__init__()
        if ack_timeout <= 0:
            raise ValueError(f"ack_timeout must be > 0, got {ack_timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if dedup_window < 1:
            raise ValueError(f"dedup_window must be >= 1, got {dedup_window}")
        if backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1.0, got {backoff_factor}")
        if backoff_jitter < 0.0:
            raise ValueError(f"backoff_jitter must be >= 0, got {backoff_jitter}")
        self.topology = topology
        self.binding = binding
        self.on_deliver = on_deliver
        self.on_drop = on_drop
        self.reliable = reliable
        self.max_retries = max_retries
        self.ack_timeout = ack_timeout
        self.ack_size_units = ack_size_units
        self.dedup_window = dedup_window
        self.wire_format = wire_format
        self.backoff_factor = backoff_factor
        self.backoff_jitter = backoff_jitter
        self.backoff_max = (
            backoff_max if backoff_max is not None else 8.0 * ack_timeout
        )
        self.healing = healing
        self.fault_report = fault_report
        if wire_format:
            from . import wire  # deferred: wire imports TransportEnvelope

            self._wire = wire
        self.drops = 0
        self.forwarded = 0
        self.retransmissions = 0
        self.duplicates_suppressed = 0
        self.rejected_frames = 0
        self._seq = 0
        # uid -> (envelope, next hop, attempts, hops snapshot at send time);
        # next hop -1 means "deferred, never transmitted" (healing mode).
        # The ack timer of each pending uid is the tag-indexed process
        # timer keyed by the uid itself
        self._pending: Dict[Tuple[int, int], Tuple[TransportEnvelope, int, int, int]] = {}
        # forwarding dedup: highest seq seen + seen seqs within the window,
        # keyed by (origin, previous hop) so ARQ echoes are suppressed
        # while a rerouted envelope arriving from a new relay is not
        self._seen_high: Dict[Hashable, int] = {}
        self._seen_recent: Dict[Hashable, Set[int]] = {}
        # delivery dedup (at the destination leader): keyed by origin only,
        # enforcing at-most-once delivery regardless of the path taken
        self._dlv_high: Dict[Hashable, int] = {}
        self._dlv_recent: Dict[Hashable, Set[int]] = {}
        # healing state
        self._last_hb = 0.0
        self._takeover_seen: Set[Tuple[GridCoord, int]] = set()
        # origin -> splitmix state with this node's id and the origin
        # folded in, made on the first retry delay of each origin (the host
        # assigns node_id after construction)
        self._backoff_states: Dict[int, int] = {}

    # -- API used by the application layer ---------------------------------------

    def originate(self, dst_cell: GridCoord, inner: Any, size_units: float = 1.0) -> None:
        """Inject a new envelope at this node."""
        uid = None
        if self.reliable:
            uid = (self.node_id, self._seq)
            self._seq += 1
        envelope = TransportEnvelope(
            src_cell=self.my_cell, dst_cell=dst_cell, inner=inner,
            size_units=size_units, uid=uid,
        )
        self._route(envelope)

    @property
    def my_cell(self) -> GridCoord:
        """The cell this node lies in."""
        return self.medium.network.cell_of(self.node_id)

    def transport_stats(self) -> Dict[str, int]:
        """Forwarding counters, including duplicate suppressions."""
        return {
            "forwarded": self.forwarded,
            "drops": self.drops,
            "retransmissions": self.retransmissions,
            "duplicates_suppressed": self.duplicates_suppressed,
            "rejected_frames": self.rejected_frames,
        }

    # -- lifecycle -----------------------------------------------------------------

    def on_start(self) -> None:
        if self.healing is not None:
            self._last_hb = self.now
            if self.binding.is_leader(self.node_id):
                self.set_timer(self.healing.heartbeat_interval, _HB_TIMER)
            else:
                self.set_timer(self._watch_window(), _WATCH_TIMER)

    def on_become_leader(self) -> None:
        """Hook: this node just took over as its cell's leader (failover).

        Subclasses hosting application programs adopt the cell's rule
        program state-fresh here.
        """

    # -- duplicate suppression ----------------------------------------------------

    @staticmethod
    def _window_seen(
        high: Dict[Hashable, int],
        recent: Dict[Hashable, Set[int]],
        window: int,
        key: Hashable,
        seq: int,
    ) -> bool:
        top = high.get(key, -1)
        if seq > top:
            return False
        if seq <= top - window:
            return True  # older than the window: assumed already seen
        return seq in recent.get(key, ())

    @staticmethod
    def _window_mark(
        high: Dict[Hashable, int],
        recent: Dict[Hashable, Set[int]],
        window: int,
        key: Hashable,
        seq: int,
    ) -> None:
        """Record ``seq`` as seen; a new high-water mark evicts every seq
        at or below ``seq - window``.

        Callers mark only what :meth:`_window_seen` reports unseen, so
        every remembered seq lies in ``(top - window, top]``.  Eviction
        therefore walks whichever is smaller: the seqs the floor passes
        over, or the set itself.
        """
        seen = recent.get(key)
        if seen is None:
            seen = recent[key] = set()
        top = high.get(key, -1)
        if seq > top:
            high[key] = seq
            if seen:
                floor = seq - window
                if floor - (top - window) < len(seen):
                    seen.difference_update(range(top - window + 1, floor + 1))
                else:
                    seen.difference_update([s for s in seen if s <= floor])
        seen.add(seq)

    def _uid_seen(self, origin: Hashable, seq: int) -> bool:
        """The forwarding dedup's answer for ``(origin, seq)``; ``on_packet``
        keys it by ``(origin, previous hop)``."""
        return self._window_seen(
            self._seen_high, self._seen_recent, self.dedup_window, origin, seq
        )

    def _uid_mark(self, origin: Hashable, seq: int) -> None:
        self._window_mark(
            self._seen_high, self._seen_recent, self.dedup_window, origin, seq
        )

    # -- forwarding ----------------------------------------------------------------

    def _reject_frame(self) -> None:
        self.rejected_frames += 1
        if self.fault_report is not None:
            self.fault_report.frames_rejected += 1

    def on_packet(self, packet: Packet) -> None:
        """Dispatch one arrival by kind: envelopes (the hot path) first,
        then acknowledgements, then the healing floods.  A payload mangled
        in flight (:class:`CorruptedFrame`) is rejected whatever its kind.
        """
        kind = packet.kind
        if kind == TRANSPORT_KIND:
            envelope: TransportEnvelope = packet.payload
            if isinstance(envelope, CorruptedFrame):
                # object-passing analogue of an undecodable wire frame
                self._reject_frame()
                return
            if self.wire_format and isinstance(envelope, (bytes, bytearray, memoryview)):
                try:
                    envelope = self._wire.decode_envelope(envelope)
                except self._wire.WireDecodeError:
                    # corrupted/truncated frame: count and drop, never crash
                    # the simulation; the upstream ARQ (if any) retransmits
                    self._reject_frame()
                    return
            uid = envelope.uid
            if self.reliable and uid is not None:
                # acknowledge receipt to the previous hop (even duplicates:
                # the original ack may have been the lost packet)
                src = packet.src
                self.medium.unicast(
                    self.node_id,
                    src,
                    ACK_KIND,
                    self._wire.encode_ack(uid) if self.wire_format else uid,
                    self.ack_size_units,
                )
                origin, seq = uid
                key = (origin, src)
                high, recent, window = self._seen_high, self._seen_recent, self.dedup_window
                if self._window_seen(high, recent, window, key, seq):
                    self.duplicates_suppressed += 1
                    return
                self._window_mark(high, recent, window, key, seq)
            self._route(envelope)
        elif kind == ACK_KIND:
            uid = packet.payload
            if isinstance(uid, CorruptedFrame):
                self._reject_frame()
                return
            if self.wire_format and isinstance(uid, (bytes, bytearray, memoryview)):
                try:
                    uid = self._wire.decode_ack(uid)
                except self._wire.WireDecodeError:
                    self._reject_frame()
                    return
            self._pending.pop(uid, None)
            self.cancel_timer(uid)
        elif isinstance(packet.payload, CorruptedFrame):
            self._reject_frame()
        elif kind == HEARTBEAT_KIND:
            self._on_heartbeat(packet)
        elif kind == TAKEOVER_KIND:
            self._on_takeover(packet)

    def _retry_delay(self, uid: Tuple[int, int], attempt: int) -> float:
        """Wait before retry ``attempt`` of ``uid`` (seeded backoff).

        The jitter is :func:`_stable_unit` of ``(node, uid, attempt)``.
        The node and the uid's origin are folded into the hash state once
        per origin, so each timer hashes only ``(seq, attempt)``.
        """
        delay = self.ack_timeout * (self.backoff_factor ** attempt)
        if delay > self.backoff_max:
            delay = self.backoff_max
        if self.backoff_jitter > 0.0:
            origin, seq = uid
            state = self._backoff_states.get(origin)
            if state is None:
                state = self._backoff_states[origin] = _mix(
                    _mix(_SPLITMIX_SEED, self.node_id), origin
                )
            u = (_mix(_mix(state, seq), attempt) >> 11) / _UNIT_SCALE
            delay *= 1.0 + self.backoff_jitter * u
        return delay

    def on_timer(self, tag: Any) -> None:
        if tag == _HB_TIMER:
            self._heartbeat_tick()
            return
        if tag == _WATCH_TIMER:
            self._watch_tick()
            return
        if not (isinstance(tag, tuple) and len(tag) == 2):
            return
        entry = self._pending.get(tag)
        if entry is None:
            return
        envelope, nxt, attempts, hops_at_send = entry
        if attempts >= self.max_retries:
            del self._pending[tag]
            self._drop(envelope, f"no ack from {nxt} after {attempts} retries")
            return
        if self.healing is not None:
            cell = self.my_cell
            if cell == envelope.dst_cell and self.binding.is_leader(self.node_id):
                # this node became the leader while the envelope waited
                del self._pending[tag]
                self._deliver_once(envelope)
                return
            new_nxt, _reason = self._resolve_next_hop(envelope, cell)
            if new_nxt is None:
                # still unroutable (failover/repair not done yet): burn an
                # attempt and back off without transmitting
                self._pending[tag] = (envelope, nxt, attempts + 1, hops_at_send)
                self.set_timer(self._retry_delay(tag, attempts + 1), tag)
                return
            if nxt >= 0 and new_nxt != nxt and self.fault_report is not None:
                self.fault_report.redirected_retransmissions += 1
            nxt = new_nxt
        self.retransmissions += 1
        self._pending[tag] = (envelope, nxt, attempts + 1, hops_at_send)
        # retransmit a snapshot, not the live envelope: downstream hops may
        # have incremented ``hops`` on the shared object since the first
        # attempt, and re-sending it would carry the inflated count
        clone = replace(envelope, hops=hops_at_send)
        self._tx_envelope(nxt, clone)
        self.set_timer(self._retry_delay(tag, attempts + 1), tag)

    def _resolve_next_hop(
        self, envelope: TransportEnvelope, cell: GridCoord
    ) -> Tuple[Optional[int], str]:
        """The current next hop from this node, in ``cell``, for
        ``envelope``, repairing routes on demand (healing mode) when the
        recorded hop is dead, missing or out of range."""
        net = self.medium.network
        node_id = self.node_id
        healing = self.healing
        if cell == envelope.dst_cell:
            nxt = self.binding.toward_leader.get(node_id)
            if healing is not None and (
                nxt is None
                or not net.nodes[nxt].alive
                or nxt not in net.neighbor_set(node_id)
            ):
                # dead, or moved out of radio range (mobility): repair
                if self.binding.repair_gradient(cell) and self.fault_report is not None:
                    self.fault_report.reroutes += 1
                nxt = self.binding.toward_leader.get(node_id)
            if nxt is None:
                return None, "no gradient pointer toward leader"
        else:
            direction = next_direction(cell, envelope.dst_cell)
            nxt = self.topology.entry(node_id, direction)
            if healing is not None and (
                nxt is None
                or not net.nodes[nxt].alive
                or nxt not in net.neighbor_set(node_id)
            ):
                if self.topology.repair(cell, direction) and self.fault_report is not None:
                    self.fault_report.reroutes += 1
                nxt = self.topology.entry(node_id, direction)
            if nxt is None:
                return None, f"no routing entry {direction.name}"
        if not net.nodes[nxt].alive:
            return None, f"next hop {nxt} dead"
        if nxt not in net.neighbor_set(node_id):
            return None, f"next hop {nxt} out of range"
        return nxt, ""

    def _route(self, envelope: TransportEnvelope) -> None:
        """Deliver ``envelope`` here, or forward it one hop.

        One step per hop: this node's cell is looked up once, and the next
        hop's liveness and range are checked once, by
        :meth:`_resolve_next_hop`.
        """
        node_id = self.node_id
        cell = self.medium.network.cell_of(node_id)
        if cell == envelope.dst_cell and self.binding.leaders.get(cell) == node_id:
            self._deliver_once(envelope)
            return
        nxt, reason = self._resolve_next_hop(envelope, cell)
        if nxt is None:
            self._unroutable(envelope, reason)
            return
        envelope.hops += 1
        self.forwarded += 1
        self._tx_envelope(nxt, envelope)
        uid = envelope.uid
        if self.reliable and uid is not None:
            # snapshot hops as transmitted: retransmissions resend this value
            self._pending[uid] = (envelope, nxt, 0, envelope.hops)
            self.set_timer(self._retry_delay(uid, 0), uid)

    def _unroutable(self, envelope: TransportEnvelope, reason: str) -> None:
        if (
            self.healing is not None
            and self.reliable
            and envelope.uid is not None
        ):
            # hold custody: a failover or repair may open a route shortly
            self._defer(envelope, reason)
        else:
            self._drop(envelope, reason)

    def _defer(self, envelope: TransportEnvelope, reason: str) -> None:
        uid = envelope.uid
        assert uid is not None
        entry = self._pending.get(uid)
        attempts = entry[2] if entry is not None else 0
        hops_at_send = entry[3] if entry is not None else envelope.hops + 1
        if attempts >= self.max_retries:
            self._pending.pop(uid, None)
            self._drop(envelope, reason)
            return
        self._pending[uid] = (envelope, -1, attempts + 1, hops_at_send)
        self.set_timer(self._retry_delay(uid, attempts + 1), uid)

    def _tx_envelope(self, nxt: int, envelope: TransportEnvelope) -> None:
        """One physical transmission of ``envelope`` (encoding if wired)."""
        self.medium.unicast(
            self.node_id,
            nxt,
            TRANSPORT_KIND,
            self._wire.encode_envelope(envelope) if self.wire_format else envelope,
            envelope.size_units,
        )

    def _deliver_once(self, envelope: TransportEnvelope) -> None:
        """Deliver to the bound program at most once per uid.

        Path-independent: a failover can legitimately route a
        retransmission through a different relay chain, which the
        per-previous-hop forwarding dedup intentionally lets through —
        the final gate here is keyed by origin alone.
        """
        if self.reliable and envelope.uid is not None:
            origin, seq = envelope.uid
            if self._window_seen(
                self._dlv_high, self._dlv_recent, self.dedup_window, origin, seq
            ):
                self.duplicates_suppressed += 1
                return
            self._window_mark(
                self._dlv_high, self._dlv_recent, self.dedup_window, origin, seq
            )
        self._deliver(envelope)

    def _deliver(self, envelope: TransportEnvelope) -> None:
        if self.on_deliver is not None:
            self.on_deliver(self, envelope)

    def _drop(self, envelope: TransportEnvelope, reason: str) -> None:
        self.drops += 1
        if self.on_drop is not None:
            self.on_drop(self, envelope, reason)

    # -- self-healing: heartbeats, suspicion, failover ---------------------------

    def _watch_window(self) -> float:
        h = self.healing
        assert h is not None
        return h.heartbeat_interval * h.miss_threshold

    def _on_heartbeat(self, packet: Packet) -> None:
        if self.healing is None:
            return
        cell, _leader = packet.payload
        if cell == self.my_cell:
            self._last_hb = self.now

    def _heartbeat_tick(self) -> None:
        h = self.healing
        if h is None:
            return
        if not self.binding.is_leader(self.node_id):
            # deposed mid-run (or a revived ex-leader): stop claiming the
            # role and fall back to watching the actual leader
            self._last_hb = self.now
            if self.now < h.horizon:
                self.set_timer(self._watch_window(), _WATCH_TIMER)
            return
        self.broadcast(
            HEARTBEAT_KIND, (self.my_cell, self.node_id), h.heartbeat_size_units
        )
        if self.now < h.horizon:
            self.set_timer(h.heartbeat_interval, _HB_TIMER)

    def _watch_tick(self) -> None:
        h = self.healing
        if h is None:
            return
        cell = self.my_cell
        if self.binding.leaders.get(cell) == self.node_id:
            return  # became leader meanwhile; the heartbeat timer owns the role
        window = self._watch_window()
        if self.now - self._last_hb < window - 1e-9:
            # heard a heartbeat inside the window: watch out the remainder
            if self.now < h.horizon:
                remaining = self._last_hb + window - self.now
                self.set_timer(max(remaining, 1e-9), _WATCH_TIMER)
            return
        # suspicion: a full window with no heartbeat from the leader
        net = self.medium.network
        leader = self.binding.leaders.get(cell)
        if self.fault_report is not None:
            self.fault_report.detected_failures += 1
        # a leader that moved to another cell (mobility) is alive but
        # absent — the cell must fail over exactly as if it had died
        leader_alive = (
            leader is not None
            and net.node(leader).alive
            and net.cell_of(leader) == cell
        )
        members = net.members_of_cell(cell)
        successor = (
            min(members, key=lambda m: (h.metric(net, m), m)) if members else None
        )
        if successor == self.node_id and not leader_alive:
            self._become_leader(leader)
            return
        # not the successor (or a false alarm): restart the window and let
        # the deterministic successor act
        self._last_hb = self.now
        if self.now < h.horizon:
            self.set_timer(window, _WATCH_TIMER)

    def _become_leader(self, old_leader: Optional[int]) -> None:
        h = self.healing
        assert h is not None
        cell = self.my_cell
        if self.fault_report is not None:
            self.fault_report.failovers.append(
                (self.now, cell, -1 if old_leader is None else old_leader, self.node_id)
            )
        self.binding.leaders[cell] = self.node_id
        self.binding.toward_leader[self.node_id] = None
        self._takeover_seen.add((cell, self.node_id))
        self.cancel_timer(_WATCH_TIMER)
        # the takeover flood rebuilds the cell's gradient tree (first-heard
        # parents, exactly like the election flood) and doubles as the
        # first heartbeat of the new incumbency
        self.broadcast(TAKEOVER_KIND, (cell, self.node_id), h.heartbeat_size_units)
        self._last_hb = self.now
        if self.now < h.horizon:
            self.set_timer(h.heartbeat_interval, _HB_TIMER)
        self.on_become_leader()

    def _on_takeover(self, packet: Packet) -> None:
        if self.healing is None:
            return
        cell, leader = packet.payload
        if cell != self.my_cell:
            return  # boundary suppression
        key = (cell, leader)
        if key in self._takeover_seen:
            return
        self._takeover_seen.add(key)
        net = self.medium.network
        current = self.binding.leaders.get(cell)
        if (
            current is None
            or current == leader
            or not net.node(current).alive
            or net.cell_of(current) != cell
        ):
            self.binding.leaders[cell] = leader
        if leader != self.node_id:
            self.binding.toward_leader[self.node_id] = packet.src
            self.cancel_timer(_HB_TIMER)  # a deposed ex-leader stops beating
            self._last_hb = self.now
            if self.now < self.healing.horizon:
                self.set_timer(self._watch_window(), _WATCH_TIMER)
        self.broadcast(
            TAKEOVER_KIND, (cell, leader), self.healing.heartbeat_size_units
        )


def trace_route(
    topology: EmulatedTopology,
    binding: Binding,
    src_cell: GridCoord,
    dst_cell: GridCoord,
) -> List[int]:
    """Offline computation of the physical node path an envelope takes from
    the leader of ``src_cell`` to the leader of ``dst_cell``.

    Mirrors :class:`TransportProcess` exactly (XY over cells, gateway
    chains, leader gradient); used in tests and for hop-count analytics
    without running the simulator.
    """
    net = topology.network
    current = binding.leader_of(src_cell)
    path = [current]
    guard = 0
    limit = 4 * len(net.nodes) + 16
    while True:
        guard += 1
        if guard > limit:
            raise RuntimeError("route did not converge (cycle suspected)")
        cell = net.cell_of(current)
        if cell == dst_cell:
            if binding.is_leader(current):
                return path
            nxt = binding.toward_leader.get(current)
            if nxt is None:
                raise RuntimeError(f"node {current}: no gradient pointer")
        else:
            direction = next_direction(cell, dst_cell)
            nxt = topology.entry(current, direction)
            if nxt is None:
                raise RuntimeError(
                    f"node {current}: no routing entry {direction.name}"
                )
        path.append(nxt)
        current = nxt
