"""The simulated wireless medium.

Realizes single-hop radio communication over the unit-disk graph of a
:class:`~repro.deployment.topology.RealNetwork`:

* **broadcast** — one transmission heard by every alive one-hop neighbour
  (the radio broadcast advantage both Section 5 protocols exploit: a node
  "broadcasts its own (small) routing table to all its neighbors");
* **unicast** — addressed to a single neighbour; other neighbours still
  overhear the channel but the medium charges only the addressee's radio
  (an idealization noted in DESIGN.md).

Per-packet latency and energy come from the active
:class:`~repro.core.cost_model.CostModel`; optional i.i.d. packet loss
models the paper's *"latency of message delivery is unpredictable in
typical sensor networks and some messages might even be dropped"*.
Energy is both drawn from each :class:`SensorNode` battery and recorded in
an :class:`EnergyLedger` keyed by node id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..core.cost_model import CostModel, EnergyLedger, UniformCostModel
from ..deployment.node import SensorNode
from ..deployment.topology import RealNetwork
from .engine import Simulator
from .trace import MediumStats


@dataclass(frozen=True)
class PartitionSlice:
    """A medium's view of one shard of a space-partitioned run.

    ``local`` is the set of node ids this shard owns (their processes and
    deliveries run here); ``shard_of`` maps every node in the deployment
    to its owning shard.  ``lookahead`` is the conservative bound: every
    cross-shard delivery must arrive at least this far after its
    transmission, which the medium *verifies* at egress time rather than
    assumes (DESIGN.md §12).
    """

    shard_id: int
    local: "frozenset[int]"
    shard_of: Dict[int, int]
    lookahead: float


@dataclass(slots=True)
class Packet:
    """One radio packet.

    ``dst`` is None for broadcasts; for unicasts it names the addressed
    neighbour.  ``kind`` tags the protocol ("rt", "elect", "mGraph", ...);
    ``payload`` is protocol-defined and treated as opaque by the medium.
    """

    src: int
    kind: str
    payload: Any
    size_units: float = 1.0
    dst: Optional[int] = None


class _Categories(dict):
    """Packet kind -> ledger category ``"<direction>:<kind>"``.

    Each category string is formatted on the first packet of its kind and
    looked up afterwards, so the per-packet paths pay a dict subscript
    instead of a string format.
    """

    def __init__(self, direction: str):
        super().__init__()
        self.direction = direction

    def __missing__(self, kind: str) -> str:
        category = self[kind] = f"{self.direction}:{kind}"
        return category


class WirelessMedium:
    """The shared radio channel.

    Parameters
    ----------
    sim:
        The event engine.
    network:
        The deployed physical network (adjacency + node batteries).
    cost_model:
        Energy/latency functions (default: the paper's uniform model).
    loss_rate:
        Independent per-receiver drop probability in ``[0, 1)``.
    rng:
        Seeded generator for loss draws (required if ``loss_rate > 0``).
    jitter:
        Maximum extra random delivery delay (models MAC contention);
        0 keeps delivery deterministic.
    batch_fanout:
        When True (default), broadcasts take the batched fast path in
        EVERY regime: loss draws and jitter draws are vectorized in
        alive-neighbour order (stream-identical to the scalar per-receiver
        draws), and deliveries are bucketed by exact arrival time — a
        jitter-free broadcast schedules ONE delivery event that charges
        every surviving receiver, a jittered one schedules one event per
        distinct arrival time.  Observable results (:class:`MediumStats`,
        the energy ledger, handler invocation order and timestamps) are
        identical either way; only ``Simulator.events_processed`` differs.
        Set False to force the per-receiver legacy path (used by the
        equivalence tests and the perf harness).
    """

    def __init__(
        self,
        sim: Simulator,
        network: RealNetwork,
        cost_model: Optional[CostModel] = None,
        loss_rate: float = 0.0,
        rng: "np.random.Generator | int | None" = None,
        jitter: float = 0.0,
        batch_fanout: bool = True,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.sim = sim
        self.network = network
        self.cost_model = cost_model or UniformCostModel()
        self.loss_rate = loss_rate
        self.jitter = jitter
        self.batch_fanout = batch_fanout
        if isinstance(rng, np.random.Generator):
            self.rng = rng
        else:
            self.rng = np.random.default_rng(rng)
        self.ledger = EnergyLedger()
        self.stats = MediumStats()
        self._tx_category = _Categories("tx")
        self._rx_category = _Categories("rx")
        self._handlers: Dict[int, Callable[[Packet], None]] = {}
        # (src, dst) pairs whose radio link is administratively severed
        # (fault injection); empty in normal operation so the hot paths
        # pay only a truthiness check
        self._blocked_links: "set[tuple[int, int]]" = set()
        # optional in-flight frame mangler (fault injection): called with
        # each outgoing Packet, returns the packet to actually deliver
        self.tx_transform: Optional[Callable[[Packet], Packet]] = None
        # space partitioning (repro.partition): None = whole-world medium
        self._partition: Optional[PartitionSlice] = None
        self._egress: List["tuple[int, float, int, int, Packet, tuple[int, ...]]"] = []
        self._emit_seq = 0
        # events a single-simulator run would NOT have fired: broadcast
        # buckets split across shards, plus non-owned fault firings.  The
        # merged run subtracts this so events_processed is K-invariant.
        self.partition_overhead = 0
        # scenario hooks (repro.scenario): an optional per-directed-link
        # admission gate (radio models) and a passive delivery tap the
        # pursuit adversary replays post-run.  Both default off so the
        # no-scenario hot path pays only a None check.
        self.link_gate: Optional[Any] = None
        self.delivery_log: "Optional[List[tuple[float, int, int]]]" = None
        self.tap_kinds: "frozenset[str]" = frozenset()

    # -- space partitioning (repro.partition) -------------------------------------

    def configure_partition(self, part: PartitionSlice) -> None:
        """Attach this medium to one shard of a partitioned run.

        From here on, deliveries to nodes outside ``part.local`` are not
        scheduled on the local simulator; they are buffered as egress
        records (drained at each window barrier) carrying the packet, its
        absolute arrival time, and the receiver group — the shard runner
        routes them to the owning shard, which injects them via
        :meth:`inject_boundary`.
        """
        if not self.batch_fanout:
            raise ValueError("partitioned media require batch_fanout=True")
        if part.lookahead <= 0:
            raise ValueError("lookahead must be positive")
        self._partition = part

    def drain_egress(self) -> List["tuple[int, float, int, int, Packet, tuple[int, ...]]"]:
        """Hand over (and clear) the boundary-crossing deliveries buffered
        since the last window barrier.

        Records are ``(dst_shard, arrival_time, src_shard, emit_seq,
        packet, receivers)``; ``emit_seq`` is a per-shard monotone counter
        so the receiving shard can order same-timestamp injections from
        one source deterministically.
        """
        out = self._egress
        self._egress = []
        return out

    def inject_boundary(
        self, time: float, packet: Packet, receivers: "tuple[int, ...]"
    ) -> None:
        """Schedule a boundary arrival handed over by a neighbour shard.

        ``time`` is absolute; the conservative window protocol guarantees
        ``time >= sim.now`` (arrivals land at or beyond the current window
        edge), so :meth:`Simulator.inject_at` never rejects.
        """
        if len(receivers) == 1:
            self.sim.inject_at(time, self._arrive, packet, receivers[0])
        else:
            self.sim.inject_at(time, self._arrive_many, packet, list(receivers))

    def _check_lookahead(self, delay: float) -> None:
        part = self._partition
        if part is not None and delay < part.lookahead:
            raise RuntimeError(
                f"cross-shard delivery delay {delay} beats the configured "
                f"lookahead {part.lookahead}: the conservative window "
                "protocol would miss it (lower the lookahead bound)"
            )

    def _emit(
        self,
        dst_shard: int,
        arrival: float,
        packet: Packet,
        receivers: "tuple[int, ...]",
    ) -> None:
        part = self._partition
        self._egress.append(
            (dst_shard, arrival, part.shard_id, self._emit_seq, packet, receivers)
        )
        self._emit_seq += 1

    def _partition_dispatch(
        self,
        packet: Packet,
        survivors: List[int],
        delay: float,
        extras: Optional[List[float]],
    ) -> None:
        """Partition-aware broadcast fan-out.

        Replicates the legacy tail exactly for local receivers (same
        arrival-time buckets in first-seen order, delivered in receiver
        order) and turns each bucket's remote receivers into one egress
        record per destination shard.  Every extra event a bucket split
        causes — relative to the single event a whole-world medium would
        schedule — is tallied in :attr:`partition_overhead`.
        """
        self._check_lookahead(delay)
        if extras is None:
            buckets: Dict[float, List[int]] = {delay: survivors}
        else:
            buckets = {}
            for nbr, extra in zip(survivors, extras):
                time = delay + extra
                group = buckets.get(time)
                if group is None:
                    buckets[time] = [nbr]
                else:
                    group.append(nbr)
        part = self._partition
        local = part.local
        shard_of = part.shard_of
        now = self.sim.now
        schedule = self.sim.schedule_fire_and_forget
        for time, group in buckets.items():
            local_group: List[int] = []
            remote: Dict[int, List[int]] = {}
            for nbr in group:
                if nbr in local:
                    local_group.append(nbr)
                else:
                    bucket = remote.get(shard_of[nbr])
                    if bucket is None:
                        remote[shard_of[nbr]] = [nbr]
                    else:
                        bucket.append(nbr)
            if local_group:
                if len(local_group) == 1:
                    schedule(time, self._arrive, packet, local_group[0])
                else:
                    schedule(time, self._arrive_many, packet, local_group)
            for dst_shard, remote_group in remote.items():
                self._emit(dst_shard, now + time, packet, tuple(remote_group))
            self.partition_overhead += (1 if local_group else 0) + len(remote) - 1

    def _deliver_remote(self, packet: Packet, dst: int) -> bool:
        """Unicast delivery to a node owned by another shard.

        Loss and jitter draws happen *here*, on the source shard's RNG —
        mirroring the whole-world medium, where every draw for a
        transmission is consumed in the sender's context — so the stream
        each shard generator sees is a pure function of its own nodes'
        transmissions.
        """
        if not self.network.nodes[dst].alive:
            return False
        if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
            self.stats.record_drop(packet.kind)
            return False
        delay = self.cost_model.tx_latency(packet.size_units)
        self._check_lookahead(delay)
        if self.jitter > 0.0:
            delay += float(self.rng.uniform(0.0, self.jitter))
        self._emit(self._partition.shard_of[dst], self.sim.now + delay, packet, (dst,))
        return True

    # -- link partitioning (fault injection) --------------------------------------

    def block_link(self, a: int, b: int, symmetric: bool = True) -> None:
        """Sever the radio link ``a -> b`` (and ``b -> a`` if symmetric).

        Blocked links drop transmissions before any loss/jitter draw is
        consumed, so a plan that partitions links perturbs the RNG stream
        only through the deliveries it removes — deterministically.
        """
        self._blocked_links.add((a, b))
        if symmetric:
            self._blocked_links.add((b, a))

    def unblock_link(self, a: int, b: int, symmetric: bool = True) -> None:
        """Restore a previously blocked link (no-op if not blocked)."""
        self._blocked_links.discard((a, b))
        if symmetric:
            self._blocked_links.discard((b, a))

    def attach(self, node_id: int, handler: Callable[[Packet], None]) -> None:
        """Register the packet handler of ``node_id`` (its process)."""
        if node_id not in self.network.nodes:
            raise KeyError(f"unknown node {node_id}")
        self._handlers[node_id] = handler

    def detach(self, node_id: int) -> None:
        """Unregister a handler (process shutdown)."""
        self._handlers.pop(node_id, None)

    # -- transmission -------------------------------------------------------------

    def broadcast(
        self, src: int, kind: str, payload: Any, size_units: float = 1.0
    ) -> int:
        """One radio transmission delivered to every alive neighbour.

        Returns the number of scheduled deliveries (post-loss).  A dead
        source transmits nothing.

        The loss and jitter draws are consumed in alive-neighbour order
        exactly as the scalar per-receiver path would (numpy's vectorized
        draws are stream-identical to repeated scalar draws), so seeded
        runs are byte-for-byte reproducible across the fast and legacy
        paths.
        """
        node = self.network.nodes[src]
        if not node.alive:
            return 0
        self._charge_tx(node, size_units, kind)
        packet = Packet(src, kind, payload, size_units)
        if self.tx_transform is not None:
            packet = self.tx_transform(packet)
        receivers = self.network.alive_neighbors(src)
        if self._blocked_links:
            blocked = self._blocked_links
            receivers = [r for r in receivers if (src, r) not in blocked]
        gate = self.link_gate
        if gate is not None and receivers:
            # link-model admission (repro.scenario): decided per directed
            # link from counter hashes BEFORE any loss/jitter RNG draw, so
            # gated runs keep the medium stream aligned across modes
            admit = gate.admit
            kept = [r for r in receivers if admit(src, r)]
            faded = len(receivers) - len(kept)
            if faded:
                self.stats.record_drops(kind, faded)
            receivers = kept
        if not receivers:
            self.stats.record_tx(kind, size_units, 0)
            return 0
        if not self.batch_fanout:
            # Legacy per-receiver path: the oracle the equivalence tests
            # hold the fast path to.
            delivered = 0
            for nbr in receivers:
                if self._deliver(packet, nbr):
                    delivered += 1
            self.stats.record_tx(kind, size_units, delivered)
            return delivered
        jitter = self.jitter
        if self.loss_rate > 0.0:
            if jitter > 0.0:
                # loss AND jitter: the seed interleaves the draws per
                # receiver (loss_i then jitter_i); replicate that stream
                # with chunked vectorized draws
                survivors, extras = self._draw_loss_and_jitter(receivers)
            else:
                # Python floats, not numpy scalars: the filter compares
                # the same doubles several times faster
                draws = self.rng.random(len(receivers)).tolist()
                loss_rate = self.loss_rate
                survivors = [r for r, d in zip(receivers, draws) if d >= loss_rate]
                extras = None
            dropped = len(receivers) - len(survivors)
            if dropped:
                self.stats.record_drops(kind, dropped)
        else:
            survivors = list(receivers)
            extras = (
                self.rng.uniform(0.0, jitter, len(survivors)).tolist()
                if jitter > 0.0
                else None
            )
        delay = self.cost_model.tx_latency(size_units)
        if survivors:
            if self._partition is not None:
                self._partition_dispatch(packet, survivors, delay, extras)
            elif extras is None:
                # fan-out fast path: one event charges every receiver
                self.sim.schedule_fire_and_forget(delay, self._arrive_many, packet, survivors)
            else:
                self._schedule_jittered(packet, survivors, delay, extras)
        self.stats.record_tx(kind, size_units, len(survivors))
        return len(survivors)

    def unicast(
        self, src: int, dst: int, kind: str, payload: Any, size_units: float = 1.0
    ) -> bool:
        """Addressed transmission to a one-hop neighbour.

        Raises :class:`ValueError` if ``dst`` is not a neighbour of
        ``src`` — multi-hop forwarding is a protocol concern
        (``repro.runtime.routing``), not a radio capability.  Returns
        whether delivery was scheduled (False = lost or dead receiver).

        The per-hop transmit step of the transport: the sender is looked
        up once, and the packet is built positionally (keyword
        construction of the dataclass costs about twice as much).
        """
        network = self.network
        node = network.nodes[src]
        if not node.alive:
            return False
        if dst not in network.neighbor_set(src):
            raise ValueError(f"{dst} is not a one-hop neighbour of {src}")
        self._charge_tx(node, size_units, kind)
        stats = self.stats
        if self._blocked_links and (src, dst) in self._blocked_links:
            # partitioned link: energy is spent, nothing arrives
            stats.record_drop(kind)
            stats.record_tx(kind, size_units, 0)
            return False
        if self.link_gate is not None and not self.link_gate.admit(src, dst):
            # faded by the link model: energy is spent, nothing arrives
            stats.record_drop(kind)
            stats.record_tx(kind, size_units, 0)
            return False
        packet = Packet(src, kind, payload, size_units, dst)
        if self.tx_transform is not None:
            packet = self.tx_transform(packet)
        if self._partition is not None and dst not in self._partition.local:
            ok = self._deliver_remote(packet, dst)
        else:
            ok = self._deliver(packet, dst)
        stats.record_tx(kind, size_units, 1 if ok else 0)
        return ok

    # -- internals ---------------------------------------------------------------

    def _draw_loss_and_jitter(
        self, receivers: "tuple[int, ...] | List[int]"
    ) -> "tuple[List[int], List[float]]":
        """Vectorized replication of the interleaved per-receiver stream.

        The legacy path consumes one double per receiver (the loss draw)
        plus one more per survivor (the jitter draw), strictly interleaved
        in alive-neighbour order.  Because a numpy ``Generator`` serves
        ``random(n)`` from the same double stream as ``n`` scalar draws,
        the interleaved sequence can be replayed from chunked buffers: walk
        a buffer classifying each double as a loss or jitter draw, and when
        it runs out, draw exactly the guaranteed minimum still owed (one
        per undecided receiver, plus a pending jitter draw) — never
        overshooting, so the generator state after the broadcast is
        byte-identical to the legacy path's.

        Returns ``(survivors, extra_delays)`` aligned with each other, in
        receiver order.
        """
        rng = self.rng
        loss_rate = self.loss_rate
        jitter = self.jitter
        n = len(receivers)
        survivors: List[int] = []
        extras: List[float] = []
        buf = rng.random(n).tolist()
        avail = n
        pos = 0
        i = 0
        pending_jitter = False
        while i < n or pending_jitter:
            if pos == avail:
                need = (n - i) + (1 if pending_jitter else 0)
                buf = rng.random(need).tolist()
                avail = need
                pos = 0
            draw = buf[pos]
            pos += 1
            if pending_jitter:
                extras.append(jitter * draw)
                pending_jitter = False
            elif draw < loss_rate:
                i += 1
            else:
                survivors.append(receivers[i])
                i += 1
                pending_jitter = True
        return survivors, extras

    def _schedule_jittered(
        self,
        packet: Packet,
        survivors: List[int],
        delay: float,
        extras: List[float],
    ) -> None:
        """Time-bucketed fan-out for jittered deliveries.

        Survivors are grouped by their exact arrival time in first-seen
        (receiver) order: one event per distinct timestamp.  With
        continuous jitter the buckets are almost always singletons, but
        coincident arrivals of one transmission collapse into a single
        ``_arrive_many`` — which delivers in receiver order, exactly the
        (time, seq) order the legacy per-receiver path produces.
        """
        buckets: Dict[float, List[int]] = {}
        for nbr, extra in zip(survivors, extras):
            time = delay + extra
            group = buckets.get(time)
            if group is None:
                buckets[time] = [nbr]
            else:
                group.append(nbr)
        schedule = self.sim.schedule_fire_and_forget
        arrive = self._arrive
        arrive_many = self._arrive_many
        for time, group in buckets.items():
            if len(group) == 1:
                schedule(time, arrive, packet, group[0])
            else:
                schedule(time, arrive_many, packet, group)

    def _charge_tx(self, node: SensorNode, size_units: float, kind: str) -> None:
        energy = self.cost_model.tx_energy(size_units)
        node.draw(energy)
        self.ledger.charge(node.node_id, energy, self._tx_category[kind])

    def _deliver(self, packet: Packet, receiver: int) -> bool:
        """Loss and latency of one receiver's copy: the unicast delivery
        step, and the per-receiver step of the ``batch_fanout=False``
        broadcast oracle."""
        if not self.network.nodes[receiver].alive:
            return False
        loss_rate = self.loss_rate
        if loss_rate > 0.0 and self.rng.random() < loss_rate:
            self.stats.record_drop(packet.kind)
            return False
        delay = self.cost_model.tx_latency(packet.size_units)
        if self.jitter > 0.0:
            delay += float(self.rng.uniform(0.0, self.jitter))
        self.sim.schedule_fire_and_forget(delay, self._arrive, packet, receiver)
        return True

    def _arrive(self, packet: Packet, receiver: int) -> None:
        """One receiver's arrival: every unicast, and the per-receiver
        step of the ``batch_fanout=False`` broadcast oracle."""
        node = self.network.nodes[receiver]
        if not node.alive:  # died in flight
            return
        kind = packet.kind
        if self.tap_kinds and kind in self.tap_kinds:
            # passive adversary tap (repro.scenario): record, never perturb
            self.delivery_log.append((self.sim.now, packet.src, receiver))
        size_units = packet.size_units
        energy = self.cost_model.rx_energy(size_units)
        node.draw(energy)
        self.ledger.charge(receiver, energy, self._rx_category[kind])
        self.stats.record_rx(kind, size_units)
        handler = self._handlers.get(receiver)
        if handler is not None:
            handler(packet)

    def _arrive_many(self, packet: Packet, receivers: List[int]) -> None:
        """Batched arrival: one event delivers ``packet`` to every receiver.

        The receive kernel.  What every receiver shares is worked out once
        per packet: the rx energy, the ledger category, and whether the
        delivery tap records this kind.  Per receiver, in :meth:`_arrive`'s
        order, stays only what can differ between receivers: the liveness
        check, the tap, the battery draw (it can kill the node) and the
        handler call.  Receivers without a handler are charged to the
        ledger and channel counters in one run through their batch entry
        points; the run is flushed before the next handler call, which
        charges its own receiver just before it runs.  So a handler
        observes exactly the counters the per-receiver path would have
        left, and every float total takes the same additions in the same
        order.  Receiver order matches the per-receiver path's event
        order, so handler side effects (and anything they schedule)
        sequence identically.
        """
        kind = packet.kind
        size_units = packet.size_units
        energy = self.cost_model.rx_energy(size_units)
        category = self._rx_category[kind]
        tap = (
            self.delivery_log.append
            if self.tap_kinds and kind in self.tap_kinds
            else None
        )
        now = self.sim.now
        src = packet.src
        nodes = self.network.nodes
        handlers = self._handlers
        ledger, stats = self.ledger, self.stats
        pending: List[int] = []  # charged to the battery, not yet counted
        for receiver in receivers:
            node = nodes[receiver]
            if not node.alive:  # died in flight
                continue
            if tap is not None:
                tap((now, src, receiver))
            node.draw(energy)
            handler = handlers.get(receiver)
            if handler is None:
                pending.append(receiver)
                continue
            if pending:
                ledger.charge_many(pending, energy, category)
                stats.record_rx_many(kind, size_units, len(pending))
                pending = []
            ledger.charge(receiver, energy, category)
            stats.record_rx(kind, size_units)
            handler(packet)
        if pending:
            ledger.charge_many(pending, energy, category)
            stats.record_rx_many(kind, size_units, len(pending))
