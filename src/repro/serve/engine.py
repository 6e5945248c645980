"""The persistent deployed query engine.

One :class:`QueryEngine` instance keeps a single simulator, wireless
medium, and per-node transport-process set alive over a
:class:`~repro.runtime.stack.DeployedStack` for its whole lifetime.  It
hosts a node's process when the node first acts (a querier leader when
it first originates, storage leaders and relays on their first packet),
so a one-shot query pays for the nodes on its routes, not for the
network.  Queries are admitted in batches (one radio phase per
admission round, see :mod:`repro.serve.admission`); the virtual clock
never resets, so a serving session is one monotone timeline the way a
real deployment is.

A one-shot query is ``QueryEngine(stack, storage,
ServeConfig(cache=False)).query(...)``; the clock, the medium's ledger and
stats, and :attr:`QueryEngine.stats` then hold its latency, energy,
transmissions and drops.  Over a gathering round's radio bill, the engine
adds:

* **admission batching** — co-arriving queries share one protocol round;
  requests of the whole batch are injected together and the round runs
  until the radio quiesces;
* **epoch-cached aggregates** — the engine keeps, per querier leader,
  the payloads that leader has collected, keyed by a per-storage-cell
  freshness epoch.  A repeat query whose target cells are all fresh in
  cache answers without a single transmission.  Epochs bump on
  :meth:`QueryEngine.update_field` / :meth:`QueryEngine.invalidate` and
  when an armed :class:`~repro.runtime.faults.FaultPlan` event dirties a
  cell, so staleness is tracked incrementally, not by flushing;
* **completeness accounting** — every query knows which storage cells it
  expected, so a lossy round reports ``complete=False`` plus the exact
  ``missing_cells`` instead of silently reducing over a partial set, and
  protocol routing errors surface as the per-query ``misdirected``
  counter;
* **resilience contracts** (DESIGN.md §16) — every admitted query
  terminates with exactly one named outcome (``ok`` / ``partial`` /
  ``shed`` / ``deadline_expired``): per-tenant token buckets shed or
  defer overload at admission, deadline-bound queries retry their
  missing cells under the transport's seeded exponential-backoff
  schedule until the deadline and then disclose what they have, tenants
  may accept bounded cache staleness (``max_staleness`` freshness
  epochs) in exchange for radio silence, and a
  :class:`~repro.runtime.faults.HealingConfig` lets the engine keep
  serving across leader failover — a leader answers from the engine's
  store, so the successor serves the cell's stored aggregate, and only
  the dirtied cache cells are invalidated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.coords import GridCoord
from ..runtime.faults import FaultInjector, FaultPlan, FaultReport, HealingConfig
from ..runtime.routing import (
    ACK_TIMEOUT,
    BACKOFF_FACTOR,
    BACKOFF_JITTER,
    BACKOFF_MAX,
    TransportEnvelope,
    TransportProcess,
)
from ..runtime.stack import DeployedStack
from ..simulator.trace import stable_digest, stable_unit
from .admission import AdmissionController, Arrival, TenantPolicy

#: Inner-payload tags of the serving protocol (request carries the query
#: id and the querier's cell; response echoes the id plus the responder's
#: cell and stored payload, so answers are attributable per query).
QUERY_REQUEST = "qreq"
QUERY_RESPONSE = "qresp"

#: Data units of a query request.  A response is sized by its stored
#: payload's own ``size_units`` (1 unit for a payload without one).
REQUEST_SIZE_UNITS = 1.0

#: Event budget of one admission round's drain.
MAX_EVENTS_PER_ROUND = 10_000_000

#: The outcome taxonomy (DESIGN.md §16): every admitted query terminates
#: with exactly one of these — the liveness invariant the chaos soak
#: asserts.  ``ok`` = complete answer; ``partial`` = disclosed-partial
#: (at least one payload, the rest listed in ``missing_cells``);
#: ``shed`` = rejected at admission by the tenant's token bucket;
#: ``deadline_expired`` = the deadline passed with nothing collected.
OUTCOME_OK = "ok"
OUTCOME_PARTIAL = "partial"
OUTCOME_SHED = "shed"
OUTCOME_EXPIRED = "deadline_expired"
OUTCOMES = (OUTCOME_OK, OUTCOME_PARTIAL, OUTCOME_SHED, OUTCOME_EXPIRED)


@dataclass
class ServeConfig:
    """Engine-lifetime parameters (per-query knobs ride on the calls).

    Resilience knobs: ``deadline`` is the default per-query completion
    budget in virtual time from admission (``None`` = unbounded;
    overridden per tenant and per arrival); an incomplete deadline-bound
    query re-requests its missing cells up to ``query_retries`` times
    under the transport's ARQ backoff scaled to ``retry_base`` (see
    :meth:`QueryEngine._retry_delay`).  ``tenant_policies`` /
    ``default_policy`` give each tenant its admission budget, overload
    behaviour, and staleness contract.  ``healing`` arms the
    self-healing layer (heartbeats, deterministic failover) at the start
    of every admission round; its ``horizon`` counts from that start, so
    each round heals for that long and still quiesces.  Without it a
    killed leader's cell just degrades.
    """

    loss_rate: float = 0.0
    rng: "np.random.Generator | int | None" = None
    reliable: bool = False
    wire_format: bool = False
    cache: bool = True
    deadline: Optional[float] = None
    query_retries: int = 8
    retry_base: float = 2.0
    tenant_policies: Optional[Dict[int, TenantPolicy]] = None
    default_policy: Optional[TenantPolicy] = None
    healing: Optional[HealingConfig] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline}")
        if self.query_retries < 0:
            raise ValueError(f"query_retries must be >= 0, got {self.query_retries}")
        if self.retry_base <= 0:
            raise ValueError(f"retry_base must be > 0, got {self.retry_base}")
        if not self.cache:
            for tenant, policy in sorted((self.tenant_policies or {}).items()):
                if policy.max_staleness > 0:
                    raise ValueError(
                        f"max_staleness > 0 requires cache=True "
                        f"(tenant {tenant} sets max_staleness={policy.max_staleness})"
                    )
            if self.default_policy is not None and self.default_policy.max_staleness > 0:
                raise ValueError(
                    f"max_staleness > 0 requires cache=True (default policy "
                    f"sets max_staleness={self.default_policy.max_staleness})"
                )


@dataclass(frozen=True)
class QueryCall:
    """One admitted query, engine-facing.

    ``cells=None`` targets every cell currently stored; ``reduce_fn``
    combines the collected payloads **in sorted-cell order** (so a warm
    cache-served answer reduces in exactly the same order as a cold
    radio-served one) and defaults to returning the payload list.
    ``deadline`` is relative to the batch's admission time (``None``
    falls back to the tenant's, then the engine's, default; a
    non-positive value means the deadline already passed in the
    admission queue — the query finalizes expired without radio).
    ``deferred_rounds`` records how long admission control parked the
    query before this batch.
    """

    query_cell: GridCoord
    cells: Optional[Tuple[GridCoord, ...]] = None
    reduce_fn: Optional[Callable[[List[Any]], Any]] = None
    tenant: int = 0
    deadline: Optional[float] = None
    deferred_rounds: int = 0


@dataclass
class QueryOutcome:
    """Everything one served query reports back.

    ``outcome`` is the query's terminal state from :data:`OUTCOMES`;
    ``staleness`` is the worst freshness-epoch lag among cache-served
    cells (0 = everything served fresh), ``deadline`` the absolute
    engine-clock deadline the query ran under (``None`` = unbounded).
    """

    qid: int
    tenant: int
    query_cell: GridCoord
    value: Any
    complete: bool
    missing_cells: List[GridCoord]
    responses: int
    cache_hits: int
    cache_misses: int
    local_hits: int
    misdirected: int
    drops: int
    latency: float
    admitted_at: float
    completed_at: float
    outcome: str = OUTCOME_OK
    deadline: Optional[float] = None
    retries: int = 0
    late_responses: int = 0
    staleness: int = 0
    deferred_rounds: int = 0

    def digest_tuple(self) -> Tuple[Any, ...]:
        """Deterministic-field tuple folded into engine fingerprints."""
        return (
            self.qid,
            self.tenant,
            str(self.query_cell),
            repr(self.value),
            self.complete,
            tuple(str(c) for c in self.missing_cells),
            self.responses,
            self.cache_hits,
            self.cache_misses,
            self.local_hits,
            self.misdirected,
            self.drops,
            self.latency,
            self.admitted_at,
            self.completed_at,
            self.outcome,
            self.deadline,
            self.retries,
            self.late_responses,
            self.staleness,
            self.deferred_rounds,
        )


@dataclass
class BatchResult:
    """One admission round: its outcomes plus the round's radio bill."""

    outcomes: List[QueryOutcome]
    admitted_at: float
    quiesced_at: float
    latency: float
    energy: float
    transmissions: int
    drops: int


@dataclass
class EngineStats:
    """Lifetime counters of one engine instance.

    ``queries`` counts queries actually served (admitted into a round);
    ``shed`` counts queries rejected at admission, ``deferred`` counts
    defer *events* (one query parked two rounds counts twice).
    """

    queries: int = 0
    batches: int = 0
    responses: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    local_hits: int = 0
    misdirected: int = 0
    drops: int = 0
    incomplete_queries: int = 0
    shed: int = 0
    deferred: int = 0
    expired_queries: int = 0
    retries: int = 0
    late_responses: int = 0
    stale_hits: int = 0

    @property
    def hit_rate(self) -> float:
        """Cache hits over all cache lookups that could have hit."""
        looked = self.cache_hits + self.cache_misses
        return self.cache_hits / looked if looked else 0.0

    def digest_tuple(self) -> Tuple[Any, ...]:
        return (
            self.queries,
            self.batches,
            self.responses,
            self.cache_hits,
            self.cache_misses,
            self.local_hits,
            self.misdirected,
            self.drops,
            self.incomplete_queries,
            self.shed,
            self.deferred,
            self.expired_queries,
            self.retries,
            self.late_responses,
            self.stale_hits,
        )


@dataclass
class ServeReport:
    """Outcome of serving one arrival stream end to end.

    ``outcomes`` covers every query of the stream, shed ones included —
    ``queries == ok + partial + shed + deadline_expired`` is the
    liveness invariant (:meth:`outcome_counts`).
    """

    outcomes: List[QueryOutcome]
    batches: List[BatchResult]
    energy: float
    transmissions: int

    @property
    def queries(self) -> int:
        """Queries terminated (served or shed)."""
        return len(self.outcomes)

    @property
    def complete_queries(self) -> int:
        """Queries answered with every expected cell present."""
        return sum(1 for o in self.outcomes if o.complete)

    @property
    def cache_hit_rate(self) -> float:
        """Cache hits over cache lookups across the whole stream."""
        hits = sum(o.cache_hits for o in self.outcomes)
        misses = sum(o.cache_misses for o in self.outcomes)
        return hits / (hits + misses) if hits + misses else 0.0

    def outcome_counts(self) -> Dict[str, int]:
        """``outcome -> count`` over the whole stream, all four keys present."""
        counts = {outcome: 0 for outcome in OUTCOMES}
        for o in self.outcomes:
            counts[o.outcome] += 1
        return counts

    def per_tenant(self) -> Dict[int, Dict[str, int]]:
        """``tenant -> {queries, complete, <outcome counts>, deferred_rounds}``."""
        out: Dict[int, Dict[str, int]] = {}
        for o in self.outcomes:
            row = out.setdefault(
                o.tenant,
                {"queries": 0, "complete": 0, "deferred_rounds": 0,
                 **{outcome: 0 for outcome in OUTCOMES}},
            )
            row["queries"] += 1
            row["complete"] += int(o.complete)
            row["deferred_rounds"] += o.deferred_rounds
            row[o.outcome] += 1
        return out

    def fingerprint(self) -> str:
        """Stable digest of every deterministic observable of the stream."""
        return stable_digest(
            (
                tuple(o.digest_tuple() for o in self.outcomes),
                len(self.batches),
                self.energy,
                self.transmissions,
            )
        )


class _ActiveQuery:
    """In-flight bookkeeping of one admitted query."""

    __slots__ = (
        "qid", "call", "targets", "querier_node", "received", "radio_cells",
        "responses", "cache_hits", "cache_misses", "local_hits",
        "misdirected", "drops", "admitted_at", "last_arrival",
        "deadline", "retries", "late_responses", "staleness",
    )

    def __init__(
        self,
        qid: int,
        call: QueryCall,
        targets: Tuple[GridCoord, ...],
        querier_node: Optional[int],
        admitted_at: float,
        deadline: Optional[float] = None,
    ):
        self.qid = qid
        self.call = call
        self.targets = targets
        self.querier_node = querier_node
        self.received: Dict[GridCoord, Any] = {}
        self.radio_cells: List[GridCoord] = []
        self.responses = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.local_hits = 0
        self.misdirected = 0
        self.drops = 0
        self.admitted_at = admitted_at
        self.last_arrival = admitted_at
        self.deadline = deadline  # absolute engine-clock time, or None
        self.retries = 0
        self.late_responses = 0
        self.staleness = 0


class _ServeProcess(TransportProcess):
    """Per-node transport engine plus the storage/querier roles.

    The process is *role-free*: a request delivered to it (routing
    delivers only at a cell's bound leader) is answered from the engine's
    store, so a failover successor serves its cell with no hand-over, and
    responses are handed straight back to the engine, which owns all
    per-query state — one process set serves every tenant and every query
    concurrently.
    """

    def __init__(self, engine: "QueryEngine"):
        cfg = engine.config
        super().__init__(
            engine.stack.topology,
            engine.stack.binding,
            reliable=cfg.reliable,
            wire_format=cfg.wire_format,
            healing=cfg.healing,
            fault_report=engine._fault_report,
        )
        self.engine = engine

    def _deliver(self, envelope: TransportEnvelope) -> None:
        kind, body = envelope.inner
        if kind == QUERY_REQUEST:
            qid, querier_cell = body
            cell = self.my_cell
            stored = self.engine._storage.get(cell)
            if stored is None:
                # a request reached a leader holding nothing: protocol
                # routing error, observable per query
                self.engine._note_misdirected(qid)
                return
            # originate() so the reply gets a uid and rides the reliable
            # transport when enabled
            self.originate(
                querier_cell,
                (QUERY_RESPONSE, (qid, cell, stored)),
                size_units=getattr(stored, "size_units", 1.0),
            )
        elif kind == QUERY_RESPONSE:
            qid, cell, payload = body
            self.engine._on_response(self, qid, cell, payload)

    def _drop(self, envelope: TransportEnvelope, reason: str) -> None:
        super()._drop(envelope, reason)
        self.engine._note_drop(envelope)


class QueryEngine:
    """A long-lived query-serving instance over a deployed stack.

    Parameters
    ----------
    stack:
        A converged :class:`~repro.runtime.stack.DeployedStack`.
    storage:
        ``cell -> stored payload`` at the storage leaders (typically the
        ``exfiltrated`` map of a partial-reduction application round).
        Mutable through :meth:`update_field`.
    config:
        Engine-lifetime :class:`ServeConfig`.

    The engine builds its simulator/medium/process harness once and hosts
    no process until a node first acts; every :meth:`run_batch` (and
    therefore :meth:`query` / :meth:`serve`) advances the same virtual
    clock.  Determinism contract: given the same stack, storage, config,
    and call sequence, every observable — outcomes, medium stats, energy
    ledger, :meth:`fingerprint` — replays byte-identically in any
    process.
    """

    def __init__(
        self,
        stack: DeployedStack,
        storage: Optional[Dict[GridCoord, Any]] = None,
        config: Optional[ServeConfig] = None,
    ):
        self.stack = stack
        self.config = config or ServeConfig()
        self.stats = EngineStats()
        self.sim, self.medium, self._host = stack.make_harness(
            loss_rate=self.config.loss_rate, rng=self.config.rng
        )
        self._storage: Dict[GridCoord, Any] = dict(storage or {})
        self._epoch: Dict[GridCoord, int] = {}
        # (querier cell, storage cell) -> (epoch at fill time, payload)
        self._cached: Dict[Tuple[GridCoord, GridCoord], Tuple[int, Any]] = {}
        self._active: Dict[int, _ActiveQuery] = {}
        self._next_qid = 0
        self._outcome_digests: List[Tuple[Any, ...]] = []
        self._policies: Dict[int, TenantPolicy] = dict(
            self.config.tenant_policies or {}
        )
        self._default_policy = self.config.default_policy or TenantPolicy()
        # healing needs the report eagerly (processes record failovers
        # into it), so fault-then-recover runs fingerprint identically
        # whether or not arm_faults was called first
        self._fault_report: Optional[FaultReport] = (
            FaultReport() if self.config.healing is not None else None
        )
        self._injected_seen = 0
        self._failovers_seen = 0
        self._host.factory = self._new_process

    def _new_process(self, nid: int) -> _ServeProcess:
        """The host's factory: a serving process for ``nid``, built when
        the node first acts, under the engine's current fault report."""
        return _ServeProcess(self)

    # -- storage, freshness, and fault interaction --------------------------------

    @property
    def storage_cells(self) -> List[GridCoord]:
        """The currently stored cells, sorted."""
        return sorted(self._storage)

    def update_field(self, cell: GridCoord, payload: Any) -> None:
        """Replace the stored payload of ``cell`` and dirty its epoch.

        The cell's leader answers from the engine's store, so it serves
        the new payload from then on; every cached copy of the old
        aggregate becomes stale immediately (epoch mismatch), so the next
        query over ``cell`` re-fetches it — and only it — over the radio.
        """
        self._storage[cell] = payload
        self.invalidate([cell])

    def invalidate(self, cells: Optional[Sequence[GridCoord]] = None) -> None:
        """Dirty the freshness epoch of ``cells`` (default: everything)."""
        for cell in (self._storage if cells is None else cells):
            self._epoch[cell] = self._epoch.get(cell, 0) + 1

    def arm_faults(self, plan: FaultPlan) -> FaultReport:
        """Arm a :class:`~repro.runtime.faults.FaultPlan` on the live engine.

        Event times are relative to the current virtual time (the engine
        clock never resets), so ``time=0.5`` fires half a time unit into
        the next admission round.  After each round the engine folds the
        newly fired events into cache freshness: a kill, restore, or
        failover dirties the affected cell, so cached aggregates over a
        faulted cell are re-fetched instead of served stale.  With
        ``config.healing`` set, a killed serving leader fails over inside
        the round (deterministic successor, takeover flood) and the
        successor answers from the engine's store — the engine keeps
        serving without reconstruction.  Every hosted process, and every
        process hosted later, counts the frames it rejects into the
        returned report.
        """
        report = self._fault_report
        if report is None:
            report = self._fault_report = FaultReport()
            for proc in self._host.processes.values():
                proc.fault_report = report
        injector = FaultInjector(plan, self.stack.network, self.stack.binding, report)
        injector.arm(self.sim, self.medium)
        return report

    def _absorb_fault_dirt(self) -> None:
        """Dirty the cells touched by fault events since the last round."""
        report = self._fault_report
        if report is None:
            return
        network = self.stack.network
        for fired_at, action, target in report.injected[self._injected_seen:]:
            if action == "kill_node":
                self.invalidate([network.cell_of(int(target))])
            elif action == "kill_leader":
                cell, _leader = target
                self.invalidate([cell])
            elif action == "restore":
                _links, node = target
                if node is not None:
                    self.invalidate([network.cell_of(int(node))])
        self._injected_seen = len(report.injected)
        # failovers re-home a cell onto a fresh leader mid-round; its
        # cached aggregates are conservatively re-fetched next time
        for _time, cell, _old, _new in report.failovers[self._failovers_seen:]:
            self.invalidate([cell])
        self._failovers_seen = len(report.failovers)

    # -- serving -------------------------------------------------------------------

    def query(
        self,
        query_cell: GridCoord,
        cells: Optional[Sequence[GridCoord]] = None,
        reduce_fn: Optional[Callable[[List[Any]], Any]] = None,
        tenant: int = 0,
    ) -> QueryOutcome:
        """Serve a single query immediately (a batch of one), under its
        tenant's deadline, else the engine's."""
        call = QueryCall(
            query_cell=query_cell,
            cells=None if cells is None else tuple(cells),
            reduce_fn=reduce_fn,
            tenant=tenant,
        )
        return self.run_batch([call]).outcomes[0]

    def tick(self) -> BatchResult:
        """Run one empty maintenance round.

        Advances the engine clock through a round with no queries — armed
        fault events fire, and with ``config.healing`` set the heartbeat /
        suspicion / failover machinery runs, so a killed leader's cell
        re-homes before the next serving round instead of during it.
        """
        return self.run_batch([])

    def run_batch(
        self, calls: Sequence[QueryCall], at: Optional[float] = None
    ) -> BatchResult:
        """Serve one admission round: inject every call, run to quiesce.

        ``at`` is the admission time on the engine clock (clamped to
        ``now``; ``None`` = now).  A call whose cell has no bound leader
        raises :class:`ValueError` before any call of the batch is
        registered.  Queries whose querier leader is dead are not
        injected — they complete immediately with every target missing,
        so a faulted cell degrades one tenant's answers instead of
        crashing the serving loop (with healing armed and a deadline, the
        retry schedule re-resolves the binding, so a failover inside the
        round can still rescue the query).
        """
        leaders = self.stack.binding.leaders
        for call in calls:
            if call.query_cell not in leaders:
                raise ValueError(f"query cell {call.query_cell} has no bound leader")
        start = self.sim.now if at is None else max(at, self.sim.now)
        batch: List[_ActiveQuery] = []
        network = self.stack.network
        for call in calls:
            targets = (
                call.cells if call.cells is not None
                else tuple(sorted(self._storage))
            )
            leader = leaders[call.query_cell]
            querier = leader if network.node(leader).alive else None
            relative = call.deadline
            if relative is None:
                relative = self._policy_for(call.tenant).deadline
            if relative is None:
                relative = self.config.deadline
            deadline = None if relative is None else start + relative
            qid = self._next_qid
            self._next_qid += 1
            active = _ActiveQuery(qid, call, targets, querier, start, deadline)
            self._active[qid] = active
            batch.append(active)
        energy0 = self.medium.ledger.total
        tx0 = self.medium.stats.transmissions
        drops0 = self.stats.drops
        if self.config.healing is not None:
            # the horizon counts from the round's start, so failover stays
            # live through the round and the round still quiesces
            self.sim.schedule_at(start, self._arm_healing_round)
        if batch:
            self.sim.schedule_at(start, self._inject_batch, tuple(batch))
        self.sim.run_until_quiet(max_events=MAX_EVENTS_PER_ROUND)
        self._absorb_fault_dirt()
        outcomes = [self._finalize(active, start) for active in batch]
        self.stats.batches += 1
        return BatchResult(
            outcomes=outcomes,
            admitted_at=start,
            quiesced_at=self.sim.now,
            latency=self.sim.now - start,
            energy=self.medium.ledger.total - energy0,
            transmissions=self.medium.stats.transmissions - tx0,
            drops=self.stats.drops - drops0,
        )

    def serve(
        self,
        arrivals: Sequence[Arrival],
        round_interval: float = 1.0,
        reduce_fn: Optional[Callable[[List[Any]], Any]] = None,
    ) -> ServeReport:
        """Serve a whole arrival stream through admission batching.

        Per-tenant token buckets (``config.tenant_policies``) gate every
        round: over-budget queries are shed — terminated immediately with
        the ``shed`` outcome — or deferred ahead of the next round's
        arrivals, by tenant policy.  A deferred query's deadline budget
        shrinks by one round interval per parked round, so queueing time
        is charged against the same contract as serving time, and every
        query terminates (defers are bounded by ``max_defer_rounds``).
        """
        energy0 = self.medium.ledger.total
        tx0 = self.medium.stats.transmissions
        outcomes: List[QueryOutcome] = []
        batches: List[BatchResult] = []
        controller = AdmissionController(self._policies, self._default_policy)
        # arrivals in [k, k+1) round intervals are admitted together at
        # the window's close, (k+1) * round_interval, so no query runs
        # before it arrived; windows are kept as indices so deferred
        # queries can roll into rounds with no fresh arrivals
        if round_interval <= 0:
            raise ValueError(f"round_interval must be > 0, got {round_interval}")
        groups: Dict[int, List[Arrival]] = {}
        for arrival in sorted(
            arrivals, key=lambda a: (a.time, a.tenant, a.query_cell)
        ):
            groups.setdefault(int(arrival.time // round_interval), []).append(arrival)
        index = min(groups) if groups else 0
        pending: List[Tuple[Arrival, int]] = []
        while groups or pending:
            if not pending and index not in groups:
                index = min(groups)  # fast-forward over empty windows
            group = groups.pop(index, [])
            admit_time = (index + 1) * round_interval
            queue = pending + [(a, 0) for a in group]
            admitted, pending, shed = controller.admit_round(queue)
            self.stats.deferred += len(pending)
            for arrival, defers in shed:
                outcomes.append(self._shed_outcome(arrival, defers, admit_time))
            calls = []
            for arrival, defers in admitted:
                relative = arrival.deadline
                if relative is None:
                    relative = controller.policy_for(arrival.tenant).deadline
                if relative is None:
                    relative = self.config.deadline
                if relative is not None and defers:
                    relative -= defers * round_interval
                calls.append(
                    QueryCall(
                        query_cell=arrival.query_cell,
                        cells=arrival.cells,
                        reduce_fn=reduce_fn,
                        tenant=arrival.tenant,
                        deadline=relative,
                        deferred_rounds=defers,
                    )
                )
            if calls:
                batch = self.run_batch(calls, at=admit_time)
                batches.append(batch)
                outcomes.extend(batch.outcomes)
            index += 1
        return ServeReport(
            outcomes=outcomes,
            batches=batches,
            energy=self.medium.ledger.total - energy0,
            transmissions=self.medium.stats.transmissions - tx0,
        )

    def fingerprint(self) -> str:
        """Stable digest of the engine's whole serving history."""
        return stable_digest(
            (
                tuple(self._outcome_digests),
                self.stats.digest_tuple(),
                self.medium.stats.fingerprint(),
                self.medium.ledger.fingerprint(),
                self.sim.now,
                self.sim.events_processed,
                None
                if self._fault_report is None
                else self._fault_report.fingerprint(),
            )
        )

    # -- internals -----------------------------------------------------------------

    def _policy_for(self, tenant: int) -> TenantPolicy:
        return self._policies.get(tenant, self._default_policy)

    def _shed_outcome(
        self, arrival: Arrival, defers: int, admit_time: float
    ) -> QueryOutcome:
        qid = self._next_qid
        self._next_qid += 1
        outcome = QueryOutcome(
            qid=qid,
            tenant=arrival.tenant,
            query_cell=arrival.query_cell,
            value=None,
            complete=False,
            missing_cells=[],
            responses=0,
            cache_hits=0,
            cache_misses=0,
            local_hits=0,
            misdirected=0,
            drops=0,
            latency=0.0,
            admitted_at=admit_time,
            completed_at=admit_time,
            outcome=OUTCOME_SHED,
            deferred_rounds=defers,
        )
        self.stats.shed += 1
        self._outcome_digests.append(outcome.digest_tuple())
        return outcome

    def _arm_healing_round(self) -> None:
        """Start this round's healing (one event): host and arm every alive
        node in node-id order, as a healing application round does."""
        get = self._host.get
        for nid in self.stack.network.alive_ids():
            get(nid).arm_healing()

    def _inject_batch(self, batch: Tuple[_ActiveQuery, ...]) -> None:
        now = self.sim.now
        for active in batch:
            expired = active.deadline is not None and active.deadline <= now + 1e-9
            if expired:
                continue  # the admission queue ate the whole budget
            if active.querier_node is not None:
                proc = self._host.get(active.querier_node)
                for cell in active.targets:
                    self._request_cell(active, proc, cell, first=True)
            # dead/unbound querier with no deadline: finalized all-missing;
            # with a deadline, the retry chain below may still rescue it
            # once the healing layer fails the cell over
            if active.deadline is None or self.config.query_retries < 1:
                continue
            if all(cell in active.received for cell in active.targets):
                continue
            when = now + self._retry_delay(active.qid, 1)
            if when <= active.deadline:
                self.sim.schedule_at(when, self._retry_check, active, 1)

    def _retry_delay(self, qid: int, attempt: int) -> float:
        """The transport's ARQ backoff scaled from ``ACK_TIMEOUT`` to
        ``retry_base`` (attempt >= 1): ``min(retry_base *
        BACKOFF_FACTOR**(attempt-1), 8 * retry_base)``, stretched by up to
        ``BACKOFF_JITTER`` of itself.  Like the ARQ schedule, the jitter
        is a pure hash of ``(qid, attempt)`` — it never consumes medium
        RNG, so retries do not perturb the loss stream of unrelated
        transmissions.
        """
        base = self.config.retry_base
        cap = base * (BACKOFF_MAX / ACK_TIMEOUT)
        delay = min(base * BACKOFF_FACTOR ** (attempt - 1), cap)
        return delay * (1.0 + BACKOFF_JITTER * stable_unit(0x5EED, qid, attempt))

    def _retry_check(self, active: _ActiveQuery, attempt: int) -> None:
        """One scheduled retry: re-request whatever is still missing."""
        if active.qid not in self._active:
            return  # finalized (defensive: checks live inside one round)
        missing = [c for c in active.targets if c not in active.received]
        if not missing:
            return  # completed since the retry was scheduled
        deadline = active.deadline
        assert deadline is not None
        # re-resolve the querier: the cell may have failed over since
        # admission — serving continuity across recovery
        leader = self.stack.binding.leaders[active.call.query_cell]
        if self.stack.network.node(leader).alive:
            active.querier_node = leader
            proc = self._host.get(leader)
            active.retries += 1
            self.stats.retries += 1
            for cell in missing:
                self._request_cell(active, proc, cell, first=False)
        next_attempt = attempt + 1
        if next_attempt > self.config.query_retries:
            return
        when = self.sim.now + self._retry_delay(active.qid, next_attempt)
        if when <= deadline:
            self.sim.schedule_at(when, self._retry_check, active, next_attempt)

    def _request_cell(
        self, active: _ActiveQuery, proc: _ServeProcess, cell: GridCoord,
        first: bool,
    ) -> None:
        """Resolve one target cell: local store, cache, or radio request.

        ``first`` distinguishes the admission-time pass from retries —
        a retried cell may hit the cache (another query refreshed it
        meanwhile) but its miss was already counted at admission.
        """
        if cell == active.call.query_cell:
            # the querier's own stored payload needs no radio
            stored = self._storage.get(cell)
            if stored is not None and cell not in active.received:
                active.received[cell] = stored
                active.local_hits += 1
                self.stats.local_hits += 1
            return
        hit = self._cache_lookup(
            active.call.query_cell, cell,
            self._policy_for(active.call.tenant).max_staleness,
        )
        if hit is not None:
            lag, payload = hit
            active.received[cell] = payload
            active.cache_hits += 1
            self.stats.cache_hits += 1
            if lag > 0:
                active.staleness = max(active.staleness, lag)
                self.stats.stale_hits += 1
            return
        if first:
            active.cache_misses += 1
            self.stats.cache_misses += 1
        if cell not in active.radio_cells:
            active.radio_cells.append(cell)
        proc.originate(
            cell,
            (QUERY_REQUEST, (active.qid, active.call.query_cell)),
            size_units=REQUEST_SIZE_UNITS,
        )

    def _cache_lookup(
        self, query_cell: GridCoord, cell: GridCoord, max_staleness: int = 0
    ) -> Optional[Tuple[int, Any]]:
        """``(staleness lag, payload)`` if cached within the bound, else None."""
        if not self.config.cache:
            return None
        entry = self._cached.get((query_cell, cell))
        if entry is None:
            return None
        lag = self._epoch.get(cell, 0) - entry[0]
        if lag > max_staleness:
            return None
        return lag, entry[1]

    def _on_response(
        self, proc: _ServeProcess, qid: int, cell: GridCoord, payload: Any
    ) -> None:
        active = self._active.get(qid)
        if active is None or proc.node_id != active.querier_node:
            # a response that reached the wrong node (or outlived its
            # query): protocol routing error, never silently reduced
            self._note_misdirected(qid)
            return
        if cell in active.received:
            return  # duplicate answer (reliable-mode edge); first one wins
        if active.deadline is not None and proc.now > active.deadline + 1e-9:
            # past the deadline: the answer is disclosed as expired, but
            # the payload still warms the cache for the next query
            active.late_responses += 1
            self.stats.late_responses += 1
            if self.config.cache:
                self._cached[(active.call.query_cell, cell)] = (
                    self._epoch.get(cell, 0),
                    payload,
                )
            return
        active.received[cell] = payload
        active.responses += 1
        active.last_arrival = proc.now
        self.stats.responses += 1
        if self.config.cache:
            self._cached[(active.call.query_cell, cell)] = (
                self._epoch.get(cell, 0),
                payload,
            )

    def _note_misdirected(self, qid: int) -> None:
        self.stats.misdirected += 1
        active = self._active.get(qid)
        if active is not None:
            active.misdirected += 1

    def _note_drop(self, envelope: TransportEnvelope) -> None:
        self.stats.drops += 1
        inner = envelope.inner
        if isinstance(inner, tuple) and len(inner) == 2:
            kind, body = inner
            if kind in (QUERY_REQUEST, QUERY_RESPONSE):
                active = self._active.get(body[0])
                if active is not None:
                    active.drops += 1

    def _finalize(self, active: _ActiveQuery, admitted_at: float) -> QueryOutcome:
        del self._active[active.qid]
        missing = sorted(c for c in active.targets if c not in active.received)
        payloads = [active.received[c] for c in sorted(active.received)]
        reduce_fn = active.call.reduce_fn
        value = reduce_fn(payloads) if reduce_fn is not None else payloads
        radio_used = bool(active.radio_cells)
        if not missing:
            label = OUTCOME_OK
        elif active.received:
            label = OUTCOME_PARTIAL  # disclosed-partial, never silent
        elif active.deadline is not None:
            label = OUTCOME_EXPIRED
        else:
            label = OUTCOME_PARTIAL
        outcome = QueryOutcome(
            qid=active.qid,
            tenant=active.call.tenant,
            query_cell=active.call.query_cell,
            value=value,
            complete=not missing,
            missing_cells=missing,
            responses=active.responses,
            cache_hits=active.cache_hits,
            cache_misses=active.cache_misses,
            local_hits=active.local_hits,
            misdirected=active.misdirected,
            drops=active.drops,
            latency=(active.last_arrival - admitted_at) if radio_used else 0.0,
            admitted_at=admitted_at,
            completed_at=active.last_arrival if radio_used else admitted_at,
            outcome=label,
            deadline=active.deadline,
            retries=active.retries,
            late_responses=active.late_responses,
            staleness=active.staleness,
            deferred_rounds=active.call.deferred_rounds,
        )
        self.stats.queries += 1
        if not outcome.complete:
            self.stats.incomplete_queries += 1
        if label == OUTCOME_EXPIRED:
            self.stats.expired_queries += 1
        self._outcome_digests.append(outcome.digest_tuple())
        return outcome
