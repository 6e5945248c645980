"""The benchmark's three workloads: seeded worlds, one op each, and oracles.

Every world is built from the workload seed through the public API of
``repro`` alone.  An op runs in three steps: ``before(i)`` snapshots the
counters, ``op(i)`` is the timed work of op ``i`` of a fixed cycle, and
``observe(i, snap, raw)`` turns its output into an :class:`OpResult`
outside the timed region.  ``check(result)`` is the op's oracle.  Op ``i`` depends
only on the seed, ``i`` and the ops before it in the same world, so two
worlds built from one seed replay every op identically — the harness
checks that across the rebuilds of a run.

Why these three:

``storm``       the simulator's event pump and broadcast fan-out alone
                (``simulator.engine``, ``simulator.network``).  It is the
                bypass workload for transport, wire and serve changes.
``e1_round``    the paper's case study on the deployed stack: a quad-tree
                count over a side-16 deployment with reliable ARQ, the wire
                codec and 5% loss.  Its set-up runs deployment, topology
                emulation, binding and synthesis.
``serve_mixed`` a persistent query engine under a three-tenant stream with
                writes beside reads, so the cache hits and is invalidated
                in the same run and admission control defers work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core import CountAggregation, VirtualArchitecture
from repro.deployment import CellGrid, Terrain, build_network, ensure_coverage, uniform_random
from repro.runtime import deploy
from repro.serve import OUTCOMES, Arrival, QueryEngine, ServeConfig, TenantPolicy
from repro.simulator import Simulator, WirelessMedium


@dataclass
class OpResult:
    """What one op reports to the harness.

    ``queries`` counts queries terminated (a storm or E1 round is one);
    ``deliveries`` counts medium deliveries; ``energy`` is ledger energy
    spent by the op; ``latencies`` are its simulated-time latency samples.
    ``counts`` are deterministic per-layer counters and ``digest`` the
    deterministic observables replayed across rebuilds.  ``answer`` and
    ``expected`` are what the oracle compares.
    """

    queries: int
    deliveries: int
    energy: float
    latencies: List[float]
    counts: Dict[str, float]
    digest: Tuple[Any, ...]
    answer: Any
    expected: Any


def make_deployment(side: int, n_random: int, seed: int):
    """A covered uniform deployment over ``side x side`` cells."""
    terrain = Terrain(100.0)
    cells = CellGrid(terrain, side)
    rng = np.random.default_rng(seed)
    positions = ensure_coverage(uniform_random(n_random, terrain, rng), cells, rng)
    return build_network(positions, cells, tx_range=cells.cell_side * 2.3)


def count_every_cell(cell: Any) -> bool:
    return True


def check_equal(result: OpResult) -> Optional[str]:
    """Oracle of ``storm`` and ``e1_round``: the answer equals the expected."""
    if result.answer != result.expected:
        return f"got {result.answer!r}, want {result.expected!r}"
    return None


def check_serve(result: OpResult) -> Optional[str]:
    """One named outcome per arrival; every ``ok`` value is the true sum."""
    seen = {cell for cell, *_ in result.answer}
    if len(result.answer) != len(result.expected) or seen != set(result.expected):
        return f"{len(result.answer)} outcomes for {len(result.expected)} arrivals"
    for cell, tenant, outcome, value in result.answer:
        want_tenant, want_value = result.expected[cell]
        if outcome not in OUTCOMES or tenant != want_tenant:
            return f"querier {cell}: outcome {outcome!r} for tenant {tenant}"
        if outcome == "ok" and value != want_value:
            return f"querier {cell}: ok value {value!r}, store says {want_value!r}"
    return None


class _HarnessCapture:
    """Keeps the last simulator/medium/host a stack built.

    ``DeployedStack.make_harness`` is the one place every execution
    surface builds its radio world, so wrapping it on the instance reaches
    the medium's counters and the hosted processes through public names.
    """

    def __init__(self, stack: Any):
        self.sim = self.medium = self.host = None
        build = stack.make_harness

        def capture(*args: Any, **kwargs: Any):
            self.sim, self.medium, self.host = build(*args, **kwargs)
            return self.sim, self.medium, self.host

        stack.make_harness = capture

    def transport_totals(self) -> Dict[str, int]:
        totals = {"forwarded": 0, "retransmissions": 0, "duplicates_suppressed": 0}
        for proc in self.host.processes.values():
            stats = proc.transport_stats()
            for key in totals:
                totals[key] += stats[key]
        return totals


class Storm:
    """Every alive node broadcasts once per round under 10% loss.

    Broadcast start times are drawn per node and round inside a unit
    window, as unsynchronised nodes would send; an op is one round run to
    quiescence.  Oracle: deliveries plus drops equal the fan-out.
    """

    name = "storm"
    cycle_ops = 60
    check = staticmethod(check_equal)

    def __init__(self, seed: int, side: int = 8, n_random: int = 400, loss: float = 0.1):
        self.net = make_deployment(side, n_random, seed)
        self.sim = Simulator()
        self.medium = WirelessMedium(
            self.sim, self.net, loss_rate=loss, rng=np.random.default_rng(seed)
        )
        self.ids = self.net.alive_ids()
        self.fanout = sum(len(self.net.alive_neighbors(nid)) for nid in self.ids)
        self.offsets = np.random.default_rng([seed, 1])

    def before(self, i: int) -> Tuple[Any, ...]:
        stats = self.medium.stats
        return (
            stats.transmissions, stats.deliveries, stats.drops,
            self.sim.events_processed, self.medium.ledger.total, self.sim.now,
        )

    def op(self, i: int) -> None:
        sim = self.sim
        broadcast = self.medium.broadcast
        for nid, offset in zip(self.ids, self.offsets.random(len(self.ids)).tolist()):
            sim.schedule(offset, broadcast, nid, "storm", i)
        sim.run()

    def observe(self, i: int, snap: Tuple[Any, ...], raw: None) -> OpResult:
        tx0, dl0, dr0, ev0, energy0, start = snap
        sim, stats = self.sim, self.medium.stats
        deliveries, drops = stats.deliveries - dl0, stats.drops - dr0
        energy = self.medium.ledger.total - energy0
        counts = {
            "events": sim.events_processed - ev0,
            "transmissions": stats.transmissions - tx0,
            "deliveries": deliveries,
            "drops": drops,
        }
        return OpResult(
            queries=1,
            deliveries=deliveries,
            energy=energy,
            latencies=[sim.now - start],
            counts=counts,
            digest=(tuple(counts.values()), energy, sim.now),
            answer=deliveries + drops,
            expected=self.fanout,
        )

    def digest(self) -> Tuple[Any, ...]:
        return (self.medium.stats.fingerprint(), self.medium.ledger.fingerprint())

    def setup_counts(self) -> Dict[str, float]:
        return {}


class _DeployedWorld:
    """A world over a deployed stack (``self.stack``)."""

    stack: Any

    def setup_counts(self) -> Dict[str, float]:
        setup = self.stack.setup
        return {
            "emulation_messages": setup.emulation.messages,
            "binding_messages": setup.binding.messages,
        }


class E1Round(_DeployedWorld):
    """One deployed quad-tree count round per op, seeded per round.

    Oracle: exactly one root exfiltrates, with a count of ``side**2``.
    """

    name = "e1_round"
    cycle_ops = 16
    check = staticmethod(check_equal)

    def __init__(self, seed: int, side: int = 16, loss: float = 0.05):
        self.seed = seed
        self.side = side
        self.loss = loss
        self.net = make_deployment(side, side * side * 7, seed)
        self.stack = deploy(self.net)
        self.spec = VirtualArchitecture(side).synthesize(CountAggregation(count_every_cell))
        self.harness = _HarnessCapture(self.stack)

    def before(self, i: int) -> None:
        return None

    def op(self, i: int) -> Any:
        return self.stack.run_application(
            self.spec,
            loss_rate=self.loss,
            rng=np.random.default_rng([self.seed, i]),
            reliable=True,
            max_retries=8,
            wire_format=True,
        )

    def observe(self, i: int, snap: None, result: Any) -> OpResult:
        stats = self.harness.medium.stats
        counts = {
            "events": result.events_processed,
            "transmissions": stats.transmissions,
            "deliveries": stats.deliveries,
            "drops": stats.drops,
            "processes_built": len(self.harness.host.processes),
            "delivered_envelopes": result.delivered_envelopes,
            "firings": sum(
                len(proc.program.firing_log)
                for proc in self.harness.host.processes.values()
                if proc.program is not None
            ),
            **self.harness.transport_totals(),
        }
        roots = list(result.exfiltrated.values())
        return OpResult(
            queries=1,
            deliveries=stats.deliveries,
            energy=result.ledger.total,
            latencies=[result.latency],
            counts=counts,
            digest=(result.fingerprint(), stats.fingerprint()),
            answer=roots,
            expected=[self.side * self.side],
        )

    def digest(self) -> Tuple[Any, ...]:
        setup = self.stack.setup
        return (setup.total_messages, setup.total_energy, len(self.net))


class ServeMixed(_DeployedWorld):
    """A query engine serving a three-tenant stream with writes.

    The stream is open-loop in virtual time: bursts of ``chunk`` arrivals
    with exponential interarrivals, a querier cell unique within the
    burst, a uniform tenant, and a random subset of the stored cells per
    query.  A query's latency runs from its arrival.  Tenant 2 is
    budgeted with ``defer``.  An op serves the next chunk of arrivals, then
    writes new values to a few stored cells.  Oracle: every arrival
    terminates with exactly one named outcome, and every ``ok`` value
    equals the sum over the benchmark's own copy of the store.
    """

    name = "serve_mixed"
    cycle_ops = 120  # long enough that the cold-cache start is a small share
    check = staticmethod(check_serve)
    writes = 2
    round_interval = 40.0
    mean_interarrival = 5.0
    #: virtual time between chunk starts: a chunk's rounds (deferrals
    #: included) finish before the next chunk arrives, so no backlog
    #: carries over and latency stays a per-chunk property
    chunk_gap = 400.0

    def __init__(self, seed: int, side: int = 8, loss: float = 0.02, chunk: int = 24):
        self.chunk = chunk
        self.net = make_deployment(side, side * side * 7, seed)
        self.stack = deploy(self.net)
        self.harness = _HarnessCapture(self.stack)
        gather = self.stack.run_application(
            VirtualArchitecture(side).synthesize(
                CountAggregation(count_every_cell), max_level=1
            )
        )
        self.store: Dict[Any, int] = dict(gather.exfiltrated)
        self.engine = QueryEngine(
            self.stack,
            storage=dict(self.store),
            config=ServeConfig(
                loss_rate=loss,
                rng=np.random.default_rng(seed),
                reliable=True,
                tenant_policies={2: TenantPolicy(budget=2.0, overload="defer")},
            ),
        )
        # the stream is drawn op by op, outside the timed set-up and ops
        self._stream = np.random.default_rng([seed, 2])
        self.chunks: List[List[Arrival]] = []
        self.write_plan: List[List[Tuple[Any, int]]] = []

    def _plan_next(self) -> None:
        """Draw the next chunk of arrivals and its writes from the seed."""
        rng, k = self._stream, len(self.chunks)
        queriers = sorted(self.stack.binding.leaders)
        stored = sorted(self.store)
        now = k * self.chunk_gap
        chunk = []
        for querier in rng.choice(len(queriers), size=self.chunk, replace=False).tolist():
            now += float(rng.exponential(self.mean_interarrival))
            size = int(rng.integers(2, len(stored) + 1))
            picked = sorted(rng.choice(len(stored), size=size, replace=False).tolist())
            chunk.append(
                Arrival(
                    time=now,
                    query_cell=queriers[querier],
                    tenant=int(rng.integers(3)),
                    cells=tuple(stored[j] for j in picked),
                )
            )
        self.chunks.append(chunk)
        self.write_plan.append(
            [
                (stored[int(rng.integers(len(stored)))], int(rng.integers(1, 100)))
                for _ in range(self.writes)
            ]
        )

    def _counters(self) -> Dict[str, float]:
        engine = self.engine
        stats, medium = engine.stats, engine.medium.stats
        return {
            "events": engine.sim.events_processed,
            "transmissions": medium.transmissions,
            "deliveries": medium.deliveries,
            "drops": medium.drops,
            **self.harness.transport_totals(),
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "responses": stats.responses,
            "retries": stats.retries,
            "admitted": stats.queries,
            "deferred": stats.deferred,
            "shed": stats.shed,
            "energy": engine.medium.ledger.total,
        }

    def before(self, i: int) -> Tuple[Dict[str, float], List[int]]:
        while len(self.chunks) <= i:
            self._plan_next()
        expected = [sum(self.store[c] for c in a.cells) for a in self.chunks[i]]
        return self._counters(), expected

    def op(self, i: int) -> Any:
        engine = self.engine
        report = engine.serve(self.chunks[i], self.round_interval, reduce_fn=sum)
        for cell, value in self.write_plan[i]:
            engine.update_field(cell, value)
            self.store[cell] = value
        return report

    def observe(self, i: int, snap: Any, report: Any) -> OpResult:
        counters0, expected = snap
        counts = {k: v - counters0[k] for k, v in self._counters().items()}
        energy = counts.pop("energy")
        counts["delivered_envelopes"] = 2 * counts["responses"]
        counts["writes"] = len(self.write_plan[i])
        chunk = self.chunks[i]
        # queriers are unique within a chunk, so the querier cell names
        # the arrival an outcome belongs to
        answer = [
            (str(o.query_cell), o.tenant, o.outcome, o.value) for o in report.outcomes
        ]
        want = {str(a.query_cell): (a.tenant, exp) for a, exp in zip(chunk, expected)}
        # open loop: a query's latency runs from its arrival, not its admission
        arrived = {str(a.query_cell): a.time for a in chunk}
        return OpResult(
            queries=len(report.outcomes),
            deliveries=counts["deliveries"],
            energy=energy,
            latencies=[
                o.completed_at - arrived[str(o.query_cell)]
                for o in report.outcomes
                if o.outcome != "shed"
            ],
            counts=counts,
            digest=(report.fingerprint(),),
            answer=answer,
            expected=want,
        )

    def digest(self) -> Tuple[Any, ...]:
        return (self.engine.fingerprint(),)


#: name -> world class; each class carries its own oracle as ``check``
WORKLOADS: Dict[str, Any] = {cls.name: cls for cls in (Storm, E1Round, ServeMixed)}
