"""Conservative-lookahead execution of space-partitioned runs.

The protocol (full spec: DESIGN.md §12) is windowed conservative PDES:

* Every shard owns a full :class:`~repro.simulator.engine.Simulator` /
  medium / process slice over a *replica* of the deployment.  Its medium,
  ``_ShardMedium``, is a :class:`~repro.simulator.network.WirelessMedium`
  whose fan-out step diverts deliveries to remote nodes into egress
  records instead of local events.
* The driver advances all shards in lockstep windows.  Window ``k`` ends
  at horizon ``H_k = max(H_{k-1} + L, T_min + L)`` where ``L`` is the
  lookahead (the smallest per-hop radio latency in play) and ``T_min`` is
  the earliest pending event or buffered boundary arrival across shards —
  the ``max`` fast-forwards across empty stretches of virtual time
  without ever skipping a region that could emit cross-shard traffic.
* At each barrier the driver routes every egress record to its owning
  shard, which injects it at its exact arrival time before the next
  window.  A shard with nothing to say still answers the barrier — that
  empty reply is the null message that keeps quiet borders deadlock-free.
* The run terminates when every shard is drained and no egress is in
  flight; a wall-clock watchdog and an event budget bound livelock.

Determinism (the serial == partitioned invariant) comes from four rules:
each shard world is built from the *same pickled bytes* whether it runs
in-process or in a worker; per-shard RNG streams are ``spawn``-ed from
the root generator once, in shard order; boundary arrivals are injected
in ``(time, src_shard, emit_seq)`` order; and merged observables are
commutative sums (stats, energy, event counts).

The one workload is the timer-driven broadcast storm.  Deployed
application rounds run serially: building every shard from the whole
world costs more than splitting their event run saves (DESIGN.md §12).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import time as wall_time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.cost_model import CostModel, EnergyLedger, UniformCostModel
from ..simulator.engine import Simulator
from ..simulator.network import Packet, WirelessMedium, arrival_buckets, require_rng
from ..simulator.process import Process, ProcessHost
from ..simulator.trace import MediumStats, stable_digest
from .plan import ShardPlan, plan_stripes

#: Packet kind used by the synthetic broadcast-storm workload.
STORM_KIND = "storm"


# -- core budgeting ----------------------------------------------------------------


@dataclass(frozen=True)
class ProcBudget:
    """Resolved worker-process count for a partitioned run.

    ``procs`` is what the run will actually use; ``requested`` is what the
    caller asked for (defaulting to one process per shard); ``cpu_budget``
    is the machine's cpu count, the cap on an auto-resolved pool.
    """

    procs: int
    requested: int
    cpu_budget: int

    @property
    def clamped(self) -> bool:
        """Whether the cpu budget or the daemon pin reduced the requested count."""
        return self.procs < self.requested


def effective_procs(partitions: int, procs: Optional[int] = None) -> ProcBudget:
    """Clamp the worker count for a ``partitions``-shard run.

    The shard count K is part of the run's *semantic* configuration (it
    selects the per-shard RNG streams), so oversubscription is always
    resolved by shrinking the process pool — workers then multiplex
    several shard worlds — never by changing K.

    The cpu budget binds only when ``procs`` is auto-resolved (``None``):
    an explicit ``procs`` is an operator override, clamped just by the
    shard count.  Inside a daemonic process (a sweep shard worker) the
    pool is always pinned to 1 regardless: daemons cannot spawn
    children, so the run executes its shard worlds serially in-process —
    same fingerprint, no fork.
    """
    cpus = os.cpu_count() or 1
    requested = partitions if procs is None else max(1, min(partitions, int(procs)))
    allowed = min(requested, cpus) if procs is None else requested
    if mp.current_process().daemon:
        allowed = 1
    return ProcBudget(procs=max(1, allowed), requested=requested, cpu_budget=cpus)


# -- the shard job (the pickled construction recipe) -------------------------------


@dataclass
class _StormJob:
    """Everything a worker needs to build one shard of a broadcast storm."""

    network: Any
    cost_model: Any
    plan: ShardPlan
    lookahead: float
    loss_rate: float
    jitter: float
    rounds: int
    interval: float
    size_units: float


class _StormProcess(Process):
    """Every node broadcasts ``rounds`` numbered frames, one per interval.

    Fully in-simulation (timer-driven, no external loop touching the
    simulator), so the same process definition runs unchanged inside a
    shard worker — unlike the bench's external-loop storms.
    """

    def __init__(self, rounds: int, interval: float, size_units: float):
        super().__init__()
        self._rounds = rounds
        self._interval = interval
        self._size = size_units
        self._sent = 0

    def on_start(self) -> None:
        self._fire()

    def on_timer(self, tag: Any) -> None:
        self._fire()

    def _fire(self) -> None:
        self.broadcast(STORM_KIND, self._sent, self._size)
        self._sent += 1
        if self._sent < self._rounds:
            self.set_timer(self._interval, "storm")


# -- per-shard world ---------------------------------------------------------------

#: A boundary-crossing delivery: ``(dst_shard, arrival_time, src_shard,
#: emit_seq, packet, receivers)``.
_Egress = Tuple[int, float, int, int, Packet, Tuple[int, ...]]


class _ShardMedium(WirelessMedium):
    """The medium of one shard of a partitioned storm.

    ``local`` is the set of node ids this shard owns (their processes and
    deliveries run here); ``shard_of`` maps every node in the deployment
    to its owning shard.  Broadcast deliveries to nodes outside ``local``
    are not scheduled on the local simulator: they are buffered as egress
    records (drained at each window barrier) carrying the packet, its
    absolute arrival time and the receiver group; the window driver
    routes them to the owning shard, which schedules them via
    :meth:`inject_boundary`.  Only broadcasts cross shards: the storm
    sends no unicasts.  ``lookahead`` is the conservative bound every
    cross-shard delivery must respect, which the medium *verifies* at
    egress time rather than assumes (DESIGN.md §12).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Any,
        shard_id: int,
        local: "frozenset[int]",
        shard_of: Dict[int, int],
        lookahead: float,
        **medium_kwargs: Any,
    ):
        if lookahead <= 0:
            raise ValueError("lookahead must be positive")
        super().__init__(sim, network, **medium_kwargs)
        self.shard_id = shard_id
        self.local = local
        self.shard_of = shard_of
        self.lookahead = lookahead
        self._egress: List[_Egress] = []
        self._emit_seq = 0
        # events a single-simulator run would NOT have fired: broadcast
        # buckets split across shards.  The merged run subtracts this so
        # events_processed is K-invariant.
        self.partition_overhead = 0

    def drain_egress(self) -> List[_Egress]:
        """Hand over (and clear) the boundary-crossing deliveries buffered
        since the last window barrier.

        ``emit_seq`` is a per-shard monotone counter, so the receiving
        shard can order same-timestamp arrivals from one source
        deterministically.
        """
        out = self._egress
        self._egress = []
        return out

    def inject_boundary(
        self, time: float, packet: Packet, receivers: Tuple[int, ...]
    ) -> None:
        """Schedule a boundary arrival handed over by a neighbour shard.

        ``time`` is absolute; the conservative window protocol guarantees
        ``time >= sim.now`` (arrivals land at or beyond the current window
        edge), so :meth:`Simulator.schedule_at` never rejects.
        """
        if len(receivers) == 1:
            self.sim.schedule_at(time, self._arrive, packet, receivers[0])
        else:
            self.sim.schedule_at(time, self._arrive_many, packet, list(receivers))

    def _fan_out(
        self,
        packet: Packet,
        survivors: List[int],
        delay: float,
        extras: Optional[List[float]],
    ) -> None:
        """Partition-aware broadcast fan-out.

        Local receivers get the whole-world medium's arrival-time buckets
        (first-seen order, delivered in receiver order); each bucket's
        remote receivers become one egress record per destination shard.
        Every extra event a bucket split causes, relative to the single
        event a whole-world medium would schedule, is tallied in
        :attr:`partition_overhead`.
        """
        if delay < self.lookahead:
            raise RuntimeError(
                f"cross-shard delivery delay {delay} beats the configured "
                f"lookahead {self.lookahead}: the conservative window "
                "protocol would miss it (lower the lookahead bound)"
            )
        if extras is None:
            buckets: Dict[float, List[int]] = {delay: survivors}
        else:
            buckets = arrival_buckets(survivors, delay, extras)
        local = self.local
        shard_of = self.shard_of
        now = self.sim.now
        schedule = self.sim.schedule
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
                self._egress.append(
                    (dst_shard, now + time, self.shard_id, self._emit_seq,
                     packet, tuple(remote_group))
                )
                self._emit_seq += 1
            self.partition_overhead += (1 if local_group else 0) + len(remote) - 1



@dataclass
class _ShardResult:
    """Final observables of one shard, shipped back at the last barrier."""

    ledger: EnergyLedger
    stats: MediumStats
    latency: float
    events: int
    overhead: int


class _ShardWorld:
    """One shard's simulator, medium, and resident storm processes."""

    def __init__(self, job_blob: bytes, shard_id: int, rng: np.random.Generator):
        # Unpickling here — even when the world runs in the parent process
        # (serial mode, or several shards multiplexed on one worker) —
        # gives every shard a private replica of the deployment and makes
        # serial and multiprocess construction literally the same code
        # path on the same bytes.
        job: _StormJob = pickle.loads(job_blob)
        plan: ShardPlan = job.plan
        self.sim = Simulator()
        medium_kwargs = dict(
            cost_model=job.cost_model, loss_rate=job.loss_rate, rng=rng, jitter=job.jitter
        )
        if plan.partitions > 1:
            self.medium = _ShardMedium(
                self.sim,
                job.network,
                shard_id,
                frozenset(plan.local_nodes[shard_id]),
                plan.shard_of_node,
                job.lookahead,
                **medium_kwargs,
            )
        else:
            self.medium = WirelessMedium(self.sim, job.network, **medium_kwargs)
        self.host = ProcessHost(self.sim, self.medium)
        owned = set(plan.local_nodes[shard_id])
        for nid in job.network.alive_ids():
            if nid in owned:
                self.host.add(
                    nid, _StormProcess(job.rounds, job.interval, job.size_units)
                )
        self.host.start()

    # -- window protocol ---------------------------------------------------------

    def advance(
        self, horizon: float, records: List[_Egress]
    ) -> Tuple[int, int, Optional[float], List[_Egress]]:
        """Inject boundary arrivals, drain events up to ``horizon``, and
        report ``(fired, pending, next_event_time, egress)``."""
        if records:
            records.sort(key=lambda rec: (rec[1], rec[2], rec[3]))
            inject = self.medium.inject_boundary
            for _, time, _, _, packet, receivers in records:
                inject(time, packet, receivers)
        fired = self.sim.run_until_lookahead(horizon)
        return (
            fired,
            self.sim.pending,
            self.sim.next_event_time(),
            self.medium.drain_egress(),
        )

    def finalize(self) -> _ShardResult:
        medium = self.medium
        return _ShardResult(
            ledger=medium.ledger,
            stats=medium.stats,
            latency=self.sim.now,
            events=self.sim.events_processed,
            overhead=(
                medium.partition_overhead if isinstance(medium, _ShardMedium) else 0
            ),
        )


# -- shard transports (serial multiplexer / pipe hub) ------------------------------


class _SerialShards:
    """All shard worlds multiplexed in the calling process."""

    def __init__(self, job_blob: bytes, rngs: List[np.random.Generator]):
        self.worlds = [
            _ShardWorld(job_blob, sid, rng) for sid, rng in enumerate(rngs)
        ]

    def advance_all(self, horizon: float, inbox: Dict[int, List]) -> List[Tuple]:
        return [w.advance(horizon, inbox[sid]) for sid, w in enumerate(self.worlds)]

    def finalize_all(self) -> List[_ShardResult]:
        return [w.finalize() for w in self.worlds]

    def close(self) -> None:
        pass


def _worker_main(conn, shard_ids: List[int]) -> None:
    """Worker-process loop: build the assigned shard worlds, then serve
    ``advance`` barriers until ``finalize``.  Any exception is shipped to
    the parent (which re-raises) instead of dying silently."""
    try:
        job_blob = conn.recv_bytes()
        rngs = conn.recv()
        worlds = {
            sid: _ShardWorld(job_blob, sid, rng)
            for sid, rng in zip(shard_ids, rngs)
        }
        conn.send(("ready", None))
        while True:
            msg = conn.recv()
            if msg[0] == "advance":
                _, horizon, per_shard = msg
                out = [
                    (sid, worlds[sid].advance(horizon, per_shard.get(sid, [])))
                    for sid in shard_ids
                ]
                conn.send(("ok", out))
            elif msg[0] == "finalize":
                conn.send(("final", [(sid, worlds[sid].finalize()) for sid in shard_ids]))
                return
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown message {msg[0]!r}")
    except EOFError:  # parent died: exit quietly
        pass
    except Exception as exc:  # ship the failure to the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


class _PipeShards:
    """Hub-and-spoke multiprocess transport: the parent is the hub.

    Shards are dealt round-robin onto ``procs`` workers; each barrier is
    one request/reply exchange per worker over an ``mp.Pipe``.  The
    parent routes egress between shards, so workers never talk to each
    other — the topology stays a star regardless of K.
    """

    def __init__(
        self,
        job_blob: bytes,
        rngs: List[np.random.Generator],
        procs: int,
        wall_timeout_s: Optional[float],
    ):
        ctx = mp.get_context()
        self._timeout = wall_timeout_s
        self._assignment: List[List[int]] = [[] for _ in range(procs)]
        for sid in range(len(rngs)):
            self._assignment[sid % procs].append(sid)
        self._conns = []
        self._procs = []
        for shard_ids in self._assignment:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main, args=(child_conn, shard_ids), daemon=True
            )
            proc.start()
            child_conn.close()
            parent_conn.send_bytes(job_blob)
            parent_conn.send([rngs[sid] for sid in shard_ids])
            self._conns.append(parent_conn)
            self._procs.append(proc)
        for conn in self._conns:
            self._recv(conn)  # ready barrier: construction errors surface here

    def _recv(self, conn):
        if self._timeout is not None and not conn.poll(self._timeout):
            self.close()
            raise RuntimeError(
                f"partition watchdog: no barrier reply within {self._timeout}s "
                "(deadlocked or wedged shard worker)"
            )
        tag, payload = conn.recv()
        if tag == "error":
            self.close()
            raise RuntimeError(f"shard worker failed: {payload}")
        return payload

    def advance_all(self, horizon: float, inbox: Dict[int, List]) -> List[Tuple]:
        for conn, shard_ids in zip(self._conns, self._assignment):
            conn.send(
                ("advance", horizon, {sid: inbox[sid] for sid in shard_ids})
            )
        results: Dict[int, Tuple] = {}
        for conn in self._conns:
            for sid, res in self._recv(conn):
                results[sid] = res
        return [results[sid] for sid in sorted(results)]

    def finalize_all(self) -> List[_ShardResult]:
        for conn in self._conns:
            conn.send(("finalize",))
        finals: Dict[int, _ShardResult] = {}
        for conn in self._conns:
            for sid, res in self._recv(conn):
                finals[sid] = res
        self.close()
        return [finals[sid] for sid in sorted(finals)]

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)


# -- the window driver -------------------------------------------------------------


def _drive_windows(
    shards,
    n_shards: int,
    lookahead: float,
    max_events: int,
    wall_timeout_s: Optional[float],
) -> int:
    """Advance all shards in conservative lockstep windows until drained.

    Returns the number of synchronization windows executed.
    """
    horizon = 0.0
    inbox: Dict[int, List] = {sid: [] for sid in range(n_shards)}
    # process boots are scheduled at t=0, so 0.0 is a valid (conservative)
    # initial lower bound for every shard's next event
    next_times: List[Optional[float]] = [0.0] * n_shards
    total_fired = 0
    windows = 0
    deadline = (
        None if wall_timeout_s is None else wall_time.monotonic() + wall_timeout_s
    )
    while True:
        times = [t for t in next_times if t is not None]
        times.extend(rec[1] for recs in inbox.values() for rec in recs)
        if not times:
            break  # every queue drained and nothing in flight
        # fast-forward rule: never skip a region that could hold an event,
        # but jump straight across provably empty stretches of time
        horizon = max(horizon + lookahead, min(times) + lookahead)
        results = shards.advance_all(horizon, inbox)
        windows += 1
        inbox = {sid: [] for sid in range(n_shards)}
        any_egress = False
        for sid, (fired, _pending, next_t, egress) in enumerate(results):
            total_fired += fired
            next_times[sid] = next_t
            for rec in egress:
                inbox[rec[0]].append(rec)
                any_egress = True
        if total_fired > max_events:
            raise RuntimeError(
                f"partitioned run exceeded max_events={max_events} "
                f"({total_fired} fired over {windows} windows)"
            )
        if deadline is not None and wall_time.monotonic() > deadline:
            raise RuntimeError(
                f"partition watchdog: run exceeded {wall_timeout_s}s wall clock "
                f"after {windows} windows"
            )
        if not any_egress and all(res[1] == 0 for res in results):
            break
    return windows


def _pickle_job(job) -> bytes:
    try:
        return pickle.dumps(job)
    except Exception as exc:
        raise TypeError(
            "partitioned runs ship the deployment and cost model to shard "
            f"workers, so both must pickle ({exc})"
        ) from None


def _make_shards(
    job_blob: bytes,
    rngs: List[np.random.Generator],
    procs: int,
    wall_timeout_s: Optional[float],
):
    if procs <= 1:
        return _SerialShards(job_blob, rngs)
    return _PipeShards(job_blob, rngs, procs, wall_timeout_s)


def _spawn_rngs(
    rng: "np.random.Generator | int | None", partitions: int
) -> List[np.random.Generator]:
    root = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    if partitions == 1:
        # K=1 must consume the root stream itself: byte-identical to the
        # legacy single-process run
        return [root]
    return list(root.spawn(partitions))


# -- public entry point ------------------------------------------------------------


@dataclass
class StormOutcome:
    """Merged observables of a (possibly partitioned) broadcast storm."""

    transmissions: int
    deliveries: int
    drops: int
    events_processed: int
    latency: float
    windows: int
    partitions: int
    procs: int
    fingerprint: str


def run_partitioned_storm(
    network,
    rounds: int = 10,
    interval: float = 2.0,
    size_units: float = 1.0,
    partitions: int = 1,
    procs: Optional[int] = None,
    loss_rate: float = 0.0,
    jitter: float = 0.0,
    rng: "np.random.Generator | int | None" = None,
    cost_model: Optional[CostModel] = None,
    max_events: int = 50_000_000,
    lookahead: Optional[float] = None,
    wall_timeout_s: Optional[float] = None,
) -> StormOutcome:
    """Timer-driven broadcast storm, the partition bench/test workload.

    ``partitions=1`` runs the legacy whole-world path (one simulator, no
    window machinery) — the honest serial baseline the bench's speedup
    gate compares against.  With ``loss_rate == jitter == 0`` no RNG is
    consumed, so the outcome fingerprint is invariant across K and the
    bench asserts serial == partitioned on top of timing.  A lossy or
    jittered storm needs ``rng``, as its shard media do.
    """
    # checked here, not by the shard media: the shards get generators
    # spawned from the root, which would be OS-seeded for rng=None
    require_rng(rng, loss_rate, jitter)
    cost_model = cost_model or UniformCostModel()
    if lookahead is None:
        lookahead = cost_model.tx_latency(size_units)
    plan = plan_stripes(network, partitions)
    job = _StormJob(
        network=network,
        cost_model=cost_model,
        plan=plan,
        lookahead=lookahead,
        loss_rate=loss_rate,
        jitter=jitter,
        rounds=rounds,
        interval=interval,
        size_units=size_units,
    )
    job_blob = _pickle_job(job)
    rngs = _spawn_rngs(rng, partitions)
    if partitions == 1:
        world = _ShardWorld(job_blob, 0, rngs[0])
        world.sim.run(max_events=max_events)
        if world.sim.pending:
            raise RuntimeError("storm did not quiesce within the event budget")
        results = [world.finalize()]
        windows = 0
        used_procs = 1
    else:
        budget = effective_procs(partitions, procs)
        used_procs = budget.procs
        shards = _make_shards(job_blob, rngs, budget.procs, wall_timeout_s)
        try:
            windows = _drive_windows(
                shards, partitions, lookahead, max_events, wall_timeout_s
            )
            results = shards.finalize_all()
        finally:
            shards.close()
    stats = MediumStats()
    ledger = EnergyLedger()
    events = 0
    latency = 0.0
    for res in results:
        stats.merge(res.stats)
        ledger.merge(res.ledger)
        events += res.events - res.overhead
        latency = max(latency, res.latency)
    fingerprint = stable_digest(
        (stats.fingerprint(), ledger.fingerprint(), events, latency)
    )
    return StormOutcome(
        transmissions=stats.transmissions,
        deliveries=stats.deliveries,
        drops=stats.drops,
        events_processed=events,
        latency=latency,
        windows=windows,
        partitions=partitions,
        procs=used_procs,
        fingerprint=fingerprint,
    )
