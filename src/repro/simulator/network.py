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
:class:`~repro.core.cost_model.CostModel`, asked once per distinct packet
size; optional i.i.d. packet loss models the paper's *"latency of message
delivery is unpredictable in typical sensor networks and some messages
might even be dropped"*.

Accounting is one pass per hop: a transmission or arrival updates the
node's battery, its entry in the medium's ledger, and the
:class:`~repro.simulator.trace.KindRecord` of its packet kind (which holds
both the kind's counts and its ledger categories), all in place.

A batched broadcast ends in one step, :meth:`WirelessMedium._fan_out`,
which turns the surviving receivers into delivery events: one event
without jitter, one per distinct arrival time (:func:`arrival_buckets`)
with it.  The space-partitioned storm's shard medium
(:mod:`repro.partition.runner`) overrides only that step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..core.cost_model import CostModel, UniformCostModel
from ..deployment.node import SensorNode
from ..deployment.topology import RealNetwork
from .engine import Simulator
from .trace import MediumLedger, MediumStats


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


class _Prices(dict):
    """Packet size -> ``(tx energy, rx energy, hop latency)``.

    The cost model is asked once per distinct size, on the first packet of
    that size, and the per-packet paths pay a dict subscript afterwards.
    A negative energy is rejected here, before the packet charges
    anything.
    """

    def __init__(self, cost_model: CostModel):
        super().__init__()
        self.cost_model = cost_model

    def __missing__(self, size_units: float) -> "tuple[float, float, float]":
        model = self.cost_model
        tx, rx = model.tx_energy(size_units), model.rx_energy(size_units)
        for energy in (tx, rx):
            if energy < 0:
                raise ValueError(f"cannot draw negative energy ({energy})")
        price = self[size_units] = (tx, rx, model.tx_latency(size_units))
        return price


def arrival_buckets(
    survivors: List[int], delay: float, extras: List[float]
) -> Dict[float, List[int]]:
    """Group jittered receivers by exact arrival time ``delay + extra``.

    Buckets and the receivers inside each keep first-seen (receiver)
    order, so scheduling one event per bucket, in bucket order, calls
    the sink in the order the per-receiver path does.
    """
    buckets: Dict[float, List[int]] = {}
    for nbr, extra in zip(survivors, extras):
        time = delay + extra
        group = buckets.get(time)
        if group is None:
            buckets[time] = [nbr]
        else:
            group.append(nbr)
    return buckets


def require_rng(rng: Any, loss_rate: float, jitter: float) -> None:
    """Refuse a lossy or jittered channel without ``rng``: its draws would
    come from OS entropy, and the run would never replay."""
    if rng is None and (loss_rate > 0.0 or jitter > 0.0):
        raise ValueError("a lossy or jittered medium needs rng (a Generator or int seed)")


class WirelessMedium:
    """The shared radio channel.

    Parameters
    ----------
    sim:
        The event engine.
    network:
        The deployed physical network (adjacency + node batteries).
    cost_model:
        Energy/latency functions (default: the paper's uniform model),
        fixed for the medium's life.
    loss_rate:
        Independent per-receiver drop probability in ``[0, 1)``.
    rng:
        Seeded generator, or an int seed, for the loss and jitter draws.
        Required when ``loss_rate > 0`` or ``jitter > 0``, so that every
        lossy or jittered run replays.
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
        the energy ledger, sink call order and timestamps) are
        identical either way; only ``Simulator.events_processed`` differs.
        Set False to force the per-receiver legacy path; only tests do,
        as the oracle the fast path is held to.
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
        require_rng(rng, loss_rate, jitter)
        self.sim = sim
        self.network = network
        self.loss_rate = loss_rate
        self.jitter = jitter
        self.batch_fanout = batch_fanout
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.stats = MediumStats()
        self.ledger = MediumLedger(self.stats.records)
        self._prices = _Prices(cost_model or UniformCostModel())
        # the per-hop accounting updates these two maps in place
        self._records, self._spent = self.stats.records, self.ledger._consumed
        # the packet sink: receive(node_id, packet) gets every copy whose
        # receiver survives its own rx charge; a process host installs
        # one, and None absorbs deliveries (energy is still drawn)
        self.receive: Optional[Callable[[int, Packet], None]] = None
        # (src, dst) pairs whose radio link is administratively severed
        # (fault injection); empty in normal operation so the hot paths
        # pay only a truthiness check
        self._blocked_links: "set[tuple[int, int]]" = set()
        # optional in-flight frame mangler (fault injection): called with
        # each outgoing Packet, returns the packet to actually deliver
        self.tx_transform: Optional[Callable[[Packet], Packet]] = None
        # optional per-directed-link admission gate of a radio link model
        # (repro.scenario); None keeps the unit-disk hot path at one check
        self.link_gate: Optional[Any] = None

    @property
    def cost_model(self) -> CostModel:
        """The energy/latency functions (read-only: prices are cached)."""
        return self._prices.cost_model

    # -- link partitioning (fault injection) --------------------------------------

    def block_link(self, a: int, b: int) -> None:
        """Sever the radio link between ``a`` and ``b``, both directions.

        Blocked links drop transmissions before any loss/jitter draw is
        consumed, so a plan that partitions links perturbs the RNG stream
        only through the deliveries it removes — deterministically.
        """
        self._blocked_links.add((a, b))
        self._blocked_links.add((b, a))

    def unblock_link(self, a: int, b: int) -> None:
        """Restore a previously blocked link (no-op if not blocked)."""
        self._blocked_links.discard((a, b))
        self._blocked_links.discard((b, a))

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
        delay = self._charge_tx(node, kind, size_units)
        packet = Packet(src, kind, payload, size_units)
        if self.tx_transform is not None:
            packet = self.tx_transform(packet)
        receivers = self.network.alive_neighbors(src)
        if self._blocked_links:
            blocked = self._blocked_links
            receivers = [r for r in receivers if (src, r) not in blocked]
        gate = self.link_gate
        if gate is not None and receivers:
            # link-model admission: decided per directed link from
            # counter hashes BEFORE any loss/jitter RNG draw, so a gate
            # never shifts the medium's stream
            admit = gate.admit
            kept = [r for r in receivers if admit(src, r)]
            faded = len(receivers) - len(kept)
            if faded:
                self.stats.record_drop(kind, faded)
            receivers = kept
        if not receivers:
            return 0
        if not self.batch_fanout:
            # Legacy per-receiver path: the oracle the equivalence tests
            # hold the fast path to.
            delivered = 0
            for nbr in receivers:
                if self._deliver(packet, nbr):
                    delivered += 1
            self.stats.deliveries += delivered
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
                self.stats.record_drop(kind, dropped)
        else:
            survivors = list(receivers)
            extras = (
                self.rng.uniform(0.0, jitter, len(survivors)).tolist()
                if jitter > 0.0
                else None
            )
        if survivors:
            self._fan_out(packet, survivors, delay, extras)
        self.stats.deliveries += len(survivors)
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
        self._charge_tx(node, kind, size_units)
        if self._blocked_links and (src, dst) in self._blocked_links:
            # partitioned link: energy is spent, nothing arrives
            self.stats.record_drop(kind)
            return False
        if self.link_gate is not None and not self.link_gate.admit(src, dst):
            # faded by the link model: energy is spent, nothing arrives
            self.stats.record_drop(kind)
            return False
        packet = Packet(src, kind, payload, size_units, dst)
        if self.tx_transform is not None:
            packet = self.tx_transform(packet)
        if self._deliver(packet, dst):
            self.stats.deliveries += 1
            return True
        return False

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

    def _fan_out(
        self,
        packet: Packet,
        survivors: List[int],
        delay: float,
        extras: Optional[List[float]],
    ) -> None:
        """Schedule the arrivals of one broadcast: the batched path's last
        step.

        Without jitter (``extras`` is None) one event charges every
        survivor.  Jittered survivors are grouped by exact arrival time
        (:func:`arrival_buckets`), one event per distinct timestamp.  With
        continuous jitter the buckets are almost always singletons, but
        coincident arrivals of one transmission collapse into a single
        ``_arrive_many`` — which delivers in receiver order, exactly the
        (time, seq) order the per-receiver path produces.
        """
        schedule = self.sim.schedule
        if extras is None:
            schedule(delay, self._arrive_many, packet, survivors)
            return
        arrive = self._arrive
        arrive_many = self._arrive_many
        for time, group in arrival_buckets(survivors, delay, extras).items():
            if len(group) == 1:
                schedule(time, arrive, packet, group[0])
            else:
                schedule(time, arrive_many, packet, group)

    def _charge_tx(self, node: SensorNode, kind: str, size_units: float) -> float:
        """Account one transmission of an alive sender: its battery (it
        dies at depletion, as under :meth:`SensorNode.draw`), ledger entry,
        kind record and the running totals.  Returns the hop latency."""
        energy, _, latency = self._prices[size_units]
        node._consumed += energy
        if node._consumed >= node.initial_energy:
            node.kill()
        spent, nid = self._spent, node.node_id
        spent[nid] = spent.get(nid, 0.0) + energy
        record = self._records[kind]
        record.tx += 1
        record.tx_energy += energy
        stats = self.stats
        stats.transmissions += 1
        stats.data_units_sent += size_units
        return latency

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
        delay = self._prices[packet.size_units][2]
        if self.jitter > 0.0:
            delay += float(self.rng.uniform(0.0, self.jitter))
        self.sim.schedule(delay, self._arrive, packet, receiver)
        return True

    def _arrive(self, packet: Packet, receiver: int) -> None:
        """One receiver's arrival: every unicast, and the per-receiver
        step of the ``batch_fanout=False`` broadcast oracle.  The sink
        gets the copy only if its receiver survives the rx charge."""
        node = self.network.nodes[receiver]
        if not node.alive:  # died in flight
            return
        kind = packet.kind
        size_units = packet.size_units
        energy = self._prices[size_units][1]
        node._consumed += energy
        spent = self._spent
        spent[receiver] = spent.get(receiver, 0.0) + energy
        record = self._records[kind]
        record.rx += 1
        record.rx_energy += energy
        self.stats.data_units_received += size_units
        if node._consumed >= node.initial_energy:
            node.kill()  # the copy that drains the battery is never heard
        elif self.receive is not None:
            self.receive(receiver, packet)

    def _arrive_many(self, packet: Packet, receivers: List[int]) -> None:
        """Batched arrival: one event delivers ``packet`` to every receiver.

        The receive kernel.  What every receiver shares is looked up once
        per packet: the rx energy, the kind's record and the sink.  Per
        receiver, in :meth:`_arrive`'s order, come the liveness check, the
        battery, the receiver's ledger entry, the record and the received
        total, all updated in place, and then either the node's death
        (the rx charge drained it) or the sink call.  So every sink call
        observes exactly the counters the per-receiver path would have
        left, and every float total takes the same additions in the same
        order.  Receiver order matches the per-receiver path's event
        order, so the sink's side effects (and anything they schedule)
        sequence identically.
        """
        size_units = packet.size_units
        energy = self._prices[size_units][1]
        record = self._records[packet.kind]
        nodes = self.network.nodes
        receive = self.receive
        spent, stats = self._spent, self.stats
        for receiver in receivers:
            node = nodes[receiver]
            if not node.alive:  # died in flight
                continue
            consumed = node._consumed + energy
            node._consumed = consumed
            spent[receiver] = spent.get(receiver, 0.0) + energy
            record.rx += 1
            record.rx_energy += energy
            stats.data_units_received += size_units
            if consumed >= node.initial_energy:
                node.kill()
            elif receive is not None:
                receive(receiver, packet)
