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
of the surviving cell members under the metric the binding was elected
by), routing tables and leader gradients are repaired on demand around
dead nodes, and reliable-mode retransmissions re-resolve their next hop
so in-flight envelopes are redirected instead of dying with the original
route.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Set, Tuple

from ..core.coords import Direction, GridCoord
from ..simulator.network import Packet
from ..simulator.process import Process
from ..simulator.trace import SPLITMIX_SEED, UNIT_SCALE, mix
from .binding import Binding
from .topology_emulation import EmulatedTopology
from .wire import (
    EncodedPayload,
    TransportEnvelope,
    WireDecodeError,
    decode_ack,
    decode_envelope,
    encode_ack,
    encode_envelope,
)

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

#: Base wait for an acknowledgement (reliable mode).  The wait before
#: retry ``k`` is ``ACK_TIMEOUT * BACKOFF_FACTOR**k``, capped at
#: ``BACKOFF_MAX`` and stretched by up to ``BACKOFF_JITTER`` of itself.
ACK_TIMEOUT = 4.0
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER = 0.5
BACKOFF_MAX = 8 * ACK_TIMEOUT

#: Data units of an acknowledgement.
ACK_SIZE_UNITS = 1.0

#: Data units of a heartbeat and of a takeover-flood frame (healing mode).
HEARTBEAT_SIZE_UNITS = 0.25

#: Out-of-order tolerance of the duplicate-suppression windows, in
#: sequence numbers per key.  Each key keeps a high-water mark plus this
#: many bits of the seqs seen below it, so memory stays bounded over long
#: maintenance and churn runs; anything older counts as seen.  Origins
#: number their envelopes monotonically, so a new uid is mistaken for an
#: old one only if it arrives displaced by more than the window, far
#: beyond any reordering ARQ produces in the simulator.
DEDUP_WINDOW = 128

#: Timer tags of the healing machinery (uid retry timers are 2-tuples).
_HB_TIMER = "hb"
_WATCH_TIMER = "hb-watch"


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
    reliable:
        Enable hop-by-hop ARQ: every forward expects an acknowledgement
        from the next hop and is retransmitted up to ``max_retries``
        times, with seeded exponential backoff between attempts
        (:data:`ACK_TIMEOUT` and the ``BACKOFF_*`` constants; the jitter
        is a hash of ``(node, uid, attempt)`` that never touches the
        medium RNG stream).  Duplicates created by lost acknowledgements
        are suppressed by envelope ``uid`` within :data:`DEDUP_WINDOW`,
        per origin (and, on the forwarding path, per previous hop, so a
        post-failover reroute through an old relay is not mistaken for an
        ARQ echo).  This is the natural hardening of the Section 4.3
        observation that *"some messages might even be dropped"* — the
        synthesized program stays oblivious.
    max_retries:
        Retransmissions of one forward before the hop gives up.
    wire_format:
        Encode every hop through the compact binary codec of
        :mod:`repro.runtime.wire`: envelopes (and, in reliable mode,
        acknowledgements) travel the medium as ``bytes`` frames.  Relays
        forward a frame with only ``hops`` and the CRC re-packed, and the
        delivering leader alone decodes the payload.  Observable
        behaviour — stats, energy, delivery order, fingerprints — is
        identical to object passing.  Whatever this flag says, every node
        validates each ``bytes`` payload it receives (frame corruption
        puts bytes on the air in either mode): undecodable frames are
        counted in :attr:`rejected_frames` and dropped; in reliable mode
        the upstream hop never sees an acknowledgement and retransmits.
        A frame whose header and CRC are valid but whose payload body is
        not is forwarded, and rejected where the payload is decoded.
    healing:
        A :class:`~repro.runtime.faults.HealingConfig` enables the
        self-healing machinery (heartbeats, failover, route repair,
        retransmission redirection), armed by :meth:`arm_healing`.
        ``None`` (default) keeps the engine's behaviour byte-identical to
        the pre-fault-model code on fault-free runs.
    fault_report:
        Shared :class:`~repro.runtime.faults.FaultReport` receiving the
        observability counters (detections, failovers, reroutes,
        redirects, rejected frames).

    The constructor takes these arguments and passes them to :meth:`arm`.
    A delivered envelope goes to :meth:`_deliver` and a dropped one to
    :meth:`_drop`; subclasses override them to host an application.
    """

    __slots__ = (
        "topology", "binding", "reliable", "max_retries", "wire_format",
        "healing", "fault_report", "drops", "forwarded", "retransmissions",
        "duplicates_suppressed", "rejected_frames", "_seq", "_pending",
        "_seen", "_delivered", "_next_hops", "_next_hops_stamp", "_last_hb",
        "_healing_until", "_takeover_seen", "_backoff_states",
    )

    #: Count of rewrites of a binding or routing table by healing
    #: processes (failover, takeover, on-demand repair).  Those happen
    #: without a liveness-generation bump, and a healing round may share
    #: its stack with a process that keeps its next-hop memo across
    #: rounds (a serving engine), so the memo's stamp counts them too.
    #: Process-wide on purpose: it only ever invalidates memos, so its
    #: value never changes an output.
    _rewrites = 0

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__()
        # origin -> splitmix state with this node's id and the origin
        # folded in, made on the first retry delay of each origin (the host
        # assigns node_id after construction).  A pure function of the node
        # and the origin, so unlike the per-round state it outlives rounds
        self._backoff_states: Dict[int, int] = {}
        self.arm(*args, **kwargs)

    def arm(
        self,
        topology: EmulatedTopology,
        binding: Binding,
        reliable: bool = False,
        max_retries: int = 3,
        wire_format: bool = False,
        healing: "Optional[HealingConfig]" = None,
        fault_report: "Optional[FaultReport]" = None,
    ) -> None:
        """Set every per-round field: the configuration, the counters, and
        the sequence, custody, dedup, timer and healing state.

        The constructor runs it; a stack that keeps its processes across
        rounds runs it again on a process's first act in each later round,
        which leaves the process equal to a freshly constructed one
        (DESIGN.md §7, "Round reuse").
        """
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self._reset_timers()
        self.topology = topology
        self.binding = binding
        self.reliable = reliable
        self.max_retries = max_retries
        self.wire_format = wire_format
        self.healing = healing
        self.fault_report = fault_report
        self.drops = 0
        self.forwarded = 0
        self.retransmissions = 0
        self.duplicates_suppressed = 0
        self.rejected_frames = 0
        self._seq = 0
        # uid -> (envelope, next hop, attempts, hops snapshot at send time);
        # in wire mode the envelope as sent, its inner the frame.  Next hop
        # -1 means "deferred, never transmitted" (healing mode).  The ack
        # timer of each pending uid is the tag-indexed process timer keyed
        # by the uid itself
        self._pending: Dict[Tuple[int, int], Tuple[TransportEnvelope, int, int, int]] = {}
        # forwarding dedup window, [top, mask] per key (_window_hit), keyed
        # by (origin, previous hop) so ARQ echoes are suppressed while a
        # rerouted envelope arriving from a new relay is not
        self._seen: Dict[Hashable, List[int]] = {}
        # delivery dedup window (at the destination leader): keyed by
        # origin only, enforcing at-most-once delivery whatever the path
        self._delivered: Dict[Hashable, List[int]] = {}
        # destination cell -> next hop of healing-off forwards, valid while
        # the network and the shared routes are as stamped (see _route)
        self._next_hops: Dict[GridCoord, int] = {}
        self._next_hops_stamp = -1
        # healing state; the horizon is set when healing is armed
        self._last_hb = 0.0
        self._healing_until = 0.0
        self._takeover_seen: Optional[Set[Tuple[GridCoord, int]]] = (
            None if healing is None else set()
        )

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
            self.arm_healing()

    def arm_healing(self) -> None:
        """Start a healing round now: the heartbeat and watch timers re-arm
        until ``now + healing.horizon``, and a live leader arms its
        heartbeat timer, a live member its watch timer.

        :meth:`on_start` calls it, so an application round heals from
        t = 0; a persistent serving engine calls it on every process at
        the start of each admission round instead.
        """
        h = self.healing
        assert h is not None
        now = self.now
        self._healing_until = now + h.horizon
        if not self.alive:
            return
        self._last_hb = now
        if self.binding.is_leader(self.node_id):
            self.set_timer(h.heartbeat_interval, _HB_TIMER)
        else:
            self.set_timer(self._watch_window(), _WATCH_TIMER)

    def on_become_leader(self) -> None:
        """Hook: this node just took over as its cell's leader (failover).

        Subclasses hosting application programs adopt the cell's rule
        program state-fresh here.
        """

    # -- duplicate suppression ----------------------------------------------------

    @staticmethod
    def _window_hit(
        states: Dict[Hashable, List[int]], window: int, key: Hashable, seq: int
    ) -> bool:
        """Check ``seq`` against ``key``'s dedup window and mark it seen;
        True if it was seen already (a duplicate).

        A key's state is ``[top, mask]``: ``top`` is the highest seq seen
        (seqs count up from 0) and bit ``d`` of ``mask`` means ``top - d``
        was seen.  A seq above ``top`` is new: it becomes ``top``, and the
        mask shifts left and keeps its low ``window`` bits, which forgets
        every seq at or below ``seq - window``.  A seq at or below
        ``top - window`` counts as seen; any other seq reads its bit.
        """
        state = states.get(key)
        if state is None:
            states[key] = [seq, 1]
            return False
        top, mask = state
        if seq > top:
            state[0] = seq
            state[1] = ((mask << (seq - top)) | 1) & ((1 << window) - 1)
            return False
        d = top - seq
        if d >= window or mask >> d & 1:
            return True
        state[1] = mask | 1 << d
        return False

    # -- forwarding ----------------------------------------------------------------

    def _reject_frame(self) -> None:
        self.rejected_frames += 1
        if self.fault_report is not None:
            self.fault_report.frames_rejected += 1

    def on_packet(self, packet: Packet) -> None:
        """Dispatch one arrival by kind: envelopes (the hot path) first,
        then acknowledgements, then the healing floods.  A ``bytes``
        payload is a wire frame and is validated whatever ``wire_format``
        says.
        """
        kind = packet.kind
        if kind == TRANSPORT_KIND:
            envelope: TransportEnvelope = packet.payload
            if isinstance(envelope, (bytes, bytearray, memoryview)):
                try:
                    # the payload stays encoded: a relay forwards the frame
                    # and only the delivering leader decodes it
                    envelope = decode_envelope(envelope, payload=False)
                except WireDecodeError:
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
                    encode_ack(uid) if self.wire_format else uid,
                    ACK_SIZE_UNITS,
                )
                origin, seq = uid
                if self._window_hit(self._seen, DEDUP_WINDOW, (origin, src), seq):
                    self.duplicates_suppressed += 1
                    return
            self._route(envelope)
        elif kind == ACK_KIND:
            uid = packet.payload
            if isinstance(uid, (bytes, bytearray, memoryview)):
                try:
                    uid = decode_ack(uid)
                except WireDecodeError:
                    self._reject_frame()
                    return
            self._pending.pop(uid, None)
            self.cancel_timer(uid)
        elif kind == HEARTBEAT_KIND:
            self._on_heartbeat(packet)
        elif kind == TAKEOVER_KIND:
            self._on_takeover(packet)

    def _retry_delay(self, uid: Tuple[int, int], attempt: int) -> float:
        """Wait before retry ``attempt`` of ``uid`` (seeded backoff).

        The jitter is :func:`~repro.simulator.trace.stable_unit` of
        ``(node, uid, attempt)``.  The node and the uid's origin are
        folded into the hash state once per origin, so each timer hashes
        only ``(seq, attempt)``.
        """
        delay = ACK_TIMEOUT * (BACKOFF_FACTOR ** attempt)
        if delay > BACKOFF_MAX:
            delay = BACKOFF_MAX
        origin, seq = uid
        state = self._backoff_states.get(origin)
        if state is None:
            state = self._backoff_states[origin] = mix(
                mix(SPLITMIX_SEED, self.node_id), origin
            )
        u = (mix(mix(state, seq), attempt) >> 11) / UNIT_SCALE
        return delay * (1.0 + BACKOFF_JITTER * u)

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
            self._give_up(envelope, f"no ack from {nxt} after {attempts} retries")
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
        # attempt, and re-sending it would carry the inflated count.  In
        # wire mode the snapshot re-packs the frame sent the first time
        clone = TransportEnvelope(
            envelope.src_cell, envelope.dst_cell, envelope.inner,
            envelope.size_units, hops_at_send, envelope.uid,
        )
        self._tx_envelope(nxt, clone)
        self.set_timer(self._retry_delay(tag, attempts + 1), tag)

    def _resolve_next_hop(
        self, envelope: TransportEnvelope, cell: GridCoord
    ) -> Tuple[Optional[int], str]:
        """The current next hop from this node, in ``cell``, for
        ``envelope``, repairing routes on demand (healing mode) when the
        recorded hop is dead or missing.  Tables, gradients and repairs
        only ever name a radio neighbour, so the hop is always in range."""
        net = self.medium.network
        node_id = self.node_id
        healing = self.healing
        if cell == envelope.dst_cell:
            nxt = self.binding.toward_leader.get(node_id)
            if healing is not None and (nxt is None or not net.nodes[nxt].alive):
                if self.binding.repair_gradient(cell):
                    self._rerouted()
                nxt = self.binding.toward_leader.get(node_id)
            if nxt is None:
                return None, "no gradient pointer toward leader"
        else:
            direction = next_direction(cell, envelope.dst_cell)
            nxt = self.topology.entry(node_id, direction)
            if healing is not None and (nxt is None or not net.nodes[nxt].alive):
                if self.topology.repair(cell, direction):
                    self._rerouted()
                nxt = self.topology.entry(node_id, direction)
            if nxt is None:
                return None, f"no routing entry {direction.name}"
        if not net.nodes[nxt].alive:
            return None, f"next hop {nxt} dead"
        return nxt, ""

    def _rerouted(self) -> None:
        """A repair just rewrote a gradient or a routing table."""
        TransportProcess._rewrites += 1
        if self.fault_report is not None:
            self.fault_report.reroutes += 1

    def _route(self, envelope: TransportEnvelope) -> None:
        """Deliver ``envelope`` here, or forward it one hop.

        :meth:`_resolve_next_hop` alone computes a next hop; this node's
        cell is looked up once, and the hop's liveness is checked once, by
        it.  With healing off its answer for a destination cell moves only
        with the network's liveness generation (kills, revivals, battery
        deaths) or with a healing rewrite of the shared binding or tables,
        so each successful forward is memoized per destination cell,
        stamped with the sum of the two counters (both only grow).
        Deliveries and unroutable envelopes are not memoized.  With healing
        on, repair and failover rewrite routes between hops, so every hop
        resolves afresh.
        """
        dst = envelope.dst_cell
        memo = nxt = None
        if self.healing is None:
            stamp = self.medium.network.liveness_generation + TransportProcess._rewrites
            memo = self._next_hops
            if stamp != self._next_hops_stamp:
                memo.clear()
                self._next_hops_stamp = stamp
            nxt = memo.get(dst)
        if nxt is None:
            node_id = self.node_id
            cell = self.medium.network.cell_of(node_id)
            if cell == dst and self.binding.leaders.get(cell) == node_id:
                self._deliver_once(envelope)
                return
            nxt, reason = self._resolve_next_hop(envelope, cell)
            if nxt is None:
                self._unroutable(envelope, reason)
                return
            if memo is not None:
                memo[dst] = nxt
        envelope.hops += 1
        self.forwarded += 1
        sent = self._tx_envelope(nxt, envelope)
        uid = envelope.uid
        if self.reliable and uid is not None:
            # snapshot hops as transmitted: retransmissions resend this value
            self._pending[uid] = (sent, nxt, 0, envelope.hops)
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
            self._give_up(envelope, reason)

    def _defer(self, envelope: TransportEnvelope, reason: str) -> None:
        uid = envelope.uid
        assert uid is not None
        entry = self._pending.get(uid)
        attempts = entry[2] if entry is not None else 0
        hops_at_send = entry[3] if entry is not None else envelope.hops + 1
        if attempts >= self.max_retries:
            self._pending.pop(uid, None)
            self._give_up(envelope, reason)
            return
        self._pending[uid] = (envelope, -1, attempts + 1, hops_at_send)
        self.set_timer(self._retry_delay(uid, attempts + 1), uid)

    def _tx_envelope(self, nxt: int, envelope: TransportEnvelope) -> TransportEnvelope:
        """One physical transmission of ``envelope``; returns it as sent.

        In wire mode that is the envelope with its inner in the frame just
        sent (:class:`~repro.runtime.wire.EncodedPayload`), so an origin's
        retransmissions, like a relay's, re-pack that frame instead of
        running the payload codec again.
        """
        if not self.wire_format:
            self.medium.unicast(
                self.node_id, nxt, TRANSPORT_KIND, envelope, envelope.size_units
            )
            return envelope
        frame = encode_envelope(envelope)
        self.medium.unicast(self.node_id, nxt, TRANSPORT_KIND, frame, envelope.size_units)
        if type(envelope.inner) is EncodedPayload:
            return envelope
        return TransportEnvelope(
            envelope.src_cell, envelope.dst_cell, EncodedPayload(frame),
            envelope.size_units, envelope.hops, envelope.uid,
        )

    def _decode_inner(self, envelope: TransportEnvelope) -> bool:
        """Decode a wire-mode envelope's inner in place, where it is first
        needed; False, counted in :attr:`rejected_frames`, if its payload
        body does not decode (relays forward such a frame unchecked).  The
        frame was validated on receipt, or encoded here, so only its
        payload body is decoded."""
        inner = envelope.inner
        if type(inner) is EncodedPayload:
            try:
                envelope.inner = inner.decode()
            except WireDecodeError:
                self._reject_frame()
                return False
        return True

    def _give_up(self, envelope: TransportEnvelope, reason: str) -> None:
        """Drop ``envelope``: the drop hooks see its decoded inner."""
        if self._decode_inner(envelope):
            self._drop(envelope, reason)

    def _deliver_once(self, envelope: TransportEnvelope) -> None:
        """Deliver to the bound program at most once per uid.

        Path-independent: a failover can legitimately route a
        retransmission through a different relay chain, which the
        per-previous-hop forwarding dedup intentionally lets through —
        the final gate here is keyed by origin alone.
        """
        if self.reliable and envelope.uid is not None:
            origin, seq = envelope.uid
            if self._window_hit(self._delivered, DEDUP_WINDOW, origin, seq):
                self.duplicates_suppressed += 1
                return
        if self._decode_inner(envelope):
            self._deliver(envelope)

    def _deliver(self, envelope: TransportEnvelope) -> None:
        """Hook: ``envelope`` reached the bound leader of its destination
        cell, once.  The base transport does nothing with it."""

    def _drop(self, envelope: TransportEnvelope, reason: str) -> None:
        """Hook: forwarding ``envelope`` failed (no table entry, a dead or
        out-of-range next hop, retries exhausted).  Counted in
        :attr:`drops`; subclasses extend it."""
        self.drops += 1

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
            if self.now < self._healing_until:
                self.set_timer(self._watch_window(), _WATCH_TIMER)
            return
        self.broadcast(HEARTBEAT_KIND, (self.my_cell, self.node_id), HEARTBEAT_SIZE_UNITS)
        if self.now < self._healing_until:
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
            if self.now < self._healing_until:
                remaining = self._last_hb + window - self.now
                self.set_timer(max(remaining, 1e-9), _WATCH_TIMER)
            return
        # suspicion: a full window with no heartbeat from the leader
        net = self.medium.network
        leader = self.binding.leaders.get(cell)
        if self.fault_report is not None:
            self.fault_report.detected_failures += 1
        leader_alive = leader is not None and net.node(leader).alive
        members = net.members_of_cell(cell)
        metric = self.binding.metric  # the election's, so a fresh one agrees
        successor = (
            min(members, key=lambda m: (metric(net, m), m)) if members else None
        )
        if successor == self.node_id and not leader_alive:
            self._become_leader(leader)
            return
        # not the successor (or a false alarm): restart the window and let
        # the deterministic successor act
        self._last_hb = self.now
        if self.now < self._healing_until:
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
        TransportProcess._rewrites += 1
        self._takeover_seen.add((cell, self.node_id))
        self.cancel_timer(_WATCH_TIMER)
        # the takeover flood rebuilds the cell's gradient tree (first-heard
        # parents, exactly like the election flood) and doubles as the
        # first heartbeat of the new incumbency
        self.broadcast(TAKEOVER_KIND, (cell, self.node_id), HEARTBEAT_SIZE_UNITS)
        self._last_hb = self.now
        if self.now < self._healing_until:
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
        TransportProcess._rewrites += 1
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
            if self.now < self._healing_until:
                self.set_timer(self._watch_window(), _WATCH_TIMER)
        self.broadcast(TAKEOVER_KIND, (cell, leader), HEARTBEAT_SIZE_UNITS)


def trace_route(
    topology: EmulatedTopology,
    binding: Binding,
    src_cell: GridCoord,
    dst_cell: GridCoord,
) -> List[int]:
    """Offline computation of the physical node path an envelope takes from
    the leader of ``src_cell`` to the leader of ``dst_cell``.

    Mirrors :class:`TransportProcess` exactly and walks the same tables:
    XY over cells, one :meth:`EmulatedTopology.gateway_chain` per cell
    crossing, then :meth:`Binding.path_to_leader` down the gradient.  A
    missing table entry raises :class:`RuntimeError`.  Used in tests and
    for hop-count analytics without running the simulator.
    """
    net = topology.network
    path = [binding.leader_of(src_cell)]
    while (cell := net.cell_of(path[-1])) != dst_cell:
        direction = next_direction(cell, dst_cell)
        chain = topology.gateway_chain(path[-1], direction)
        if chain is None:
            raise RuntimeError(f"node {path[-1]}: no routing entry {direction.name}")
        path += chain[1:]
    return path + binding.path_to_leader(path[-1])[1:]
