"""The sweep workload registry: named, seed-pure experiment kernels.

Every workload is a function ``(params, seed) -> WorkloadOutcome`` that
builds its whole world (deployment, simulator, stack) from the params and
the seed, runs one experiment, and returns flat numeric metrics plus a
fingerprint digest.  Purity is the contract the scheduler relies on: given
the same ``(params, seed)`` a workload must produce the same fingerprint in
any process on any shard, which is what makes the cross-shard determinism
audit and serial-vs-sharded equivalence meaningful.

Registered workloads:

``e1``      deployed quad-tree scaling (the E1 benchmark kernel): build a
            covered deployment of ``side**2 * 7`` nodes, run the Section 5
            protocols, execute one synthesized counting round.
``storm``   medium broadcast storm over ``loss`` / ``jitter`` regimes —
            the channel hot path in isolation.
``regions`` the paper's topographic-query case study on the virtual
            architecture, sweeping ``side`` / ``threshold``.
``churn``   maintenance under failure: kill a ``churn`` fraction of cell
            leaders (plus optional ``node_churn`` random nodes), run the
            Section 5.1 recovery path, optionally rotate leaders, and
            re-run the application on the recovered stack.
``serve``   persistent query serving: one :class:`repro.serve.QueryEngine`
            answers a seed-deterministic arrival stream over the deployed
            stack, with optional mid-stream field updates exercising
            epoch-based cache invalidation.

Each workload registers the parameter names it reads; a spec naming any
other parameter is rejected before its first run (:func:`check_params`),
so a misspelled or retired axis cannot quietly run at its default.

Names starting with ``_`` are internal fault-injection workloads used by
the scheduler's own tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Tuple

import numpy as np

from ..core import CountAggregation, VirtualArchitecture
from ..deployment import covered_deployment
from ..runtime import (
    FaultPlan,
    HealingConfig,
    deploy,
    kill_leaders,
    kill_random_nodes,
    plan_chaos,
    recover,
    rotate_leaders,
)
from ..scenario import UnitDisk, link_model_from_dict
from ..simulator.engine import Simulator
from ..simulator.network import WirelessMedium
from ..simulator.trace import stable_digest


@dataclass
class WorkloadOutcome:
    """What one workload run reports back to the scheduler."""

    metrics: Dict[str, float] = field(default_factory=dict)
    fingerprint: str = ""


WorkloadFn = Callable[[Dict[str, Any], int], WorkloadOutcome]

#: Registry of named workloads; extend with :func:`workload`.
WORKLOADS: Dict[str, WorkloadFn] = {}

#: The parameter names each registered workload reads.
WORKLOAD_PARAMS: Dict[str, FrozenSet[str]] = {}


def workload(
    name: str, params: Tuple[str, ...] = ()
) -> Callable[[WorkloadFn], WorkloadFn]:
    """Decorator registering a sweep workload under ``name``.

    ``params`` lists the parameter names the workload reads; ``seed`` is
    accepted by every workload, because :meth:`SweepSpec.expand` reads it.
    """

    def register(fn: WorkloadFn) -> WorkloadFn:
        WORKLOADS[name] = fn
        WORKLOAD_PARAMS[name] = frozenset(params) | {"seed"}
        return fn

    return register


def check_params(name: str, names: Iterable[str]) -> None:
    """Raise :class:`ValueError` naming every parameter ``name`` does not read.

    An unregistered workload passes here; each of its runs then fails
    with the known names (:func:`get_workload`).
    """
    known = WORKLOAD_PARAMS.get(name)
    if known is None:
        return
    unknown = sorted(set(names) - known)
    if unknown:
        raise ValueError(
            f"workload {name!r} does not read parameter(s) {unknown} "
            f"(it reads: {sorted(known)})"
        )


def get_workload(name: str) -> WorkloadFn:
    """Look up a workload; raises with the known names on a miss."""
    try:
        return WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(k for k in WORKLOADS if not k.startswith("_")))
        raise KeyError(f"unknown workload {name!r} (known: {known})") from None


def public_workloads() -> List[str]:
    """The user-facing workload names (internal ``_``-prefixed ones hidden)."""
    return sorted(k for k in WORKLOADS if not k.startswith("_"))


@workload(
    "e1",
    params=(
        "side", "n_random", "loss", "wire", "faultplan", "link",
        "reliable", "max_retries",
    ),
)
def e1_scaling(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """One deployed quad-tree counting round at ``side`` (the E1 kernel).

    ``wire=True`` runs the identical round with every transport hop
    encoded through the :mod:`repro.runtime.wire` codec; the fingerprint
    is codec-independent by design, which is what the differential
    conformance tests pin.

    ``faultplan`` (a list of event dicts, the
    :meth:`~repro.runtime.faults.FaultPlan.to_dicts` shape) arms mid-run
    fault injection; the plan and the resulting
    :class:`~repro.runtime.faults.FaultReport` fold into the fingerprint,
    so seeded fault runs shard deterministically like fault-free ones.
    With a plan the round defaults to ``reliable=True`` and
    ``max_retries=8`` (self-healing needs the ARQ to redirect).

    ``link`` (a link model's :meth:`~repro.scenario.LinkModel.to_dict`
    shape) replaces the unit-disk radio with a :mod:`repro.scenario`
    link model, as a sweep axis; ``UnitDisk`` builds no gate and runs
    the plain round.  A gated round folds the model's fingerprint and
    its faded-frame count into the fingerprint, records ``link_faded``
    and ``app_count``, defaults to ``reliable=True`` and
    ``max_retries=8``, and does not assert the exact total: a faded
    world may legitimately fall short of the full count.
    """
    side = int(params.get("side", 8))
    n_random = int(params.get("n_random", side * side * 7))
    loss = float(params.get("loss", 0.0))
    wire = bool(params.get("wire", False))
    plan_spec = params.get("faultplan")
    plan = FaultPlan.from_dicts(plan_spec) if plan_spec else None
    link_spec = params.get("link")
    link = None if link_spec is None else link_model_from_dict(link_spec)
    if isinstance(link, UnitDisk):
        link = None
    reliable = bool(
        params.get("reliable", loss > 0.0 or plan is not None or link is not None)
    )
    max_retries = int(
        params.get("max_retries", 8 if (plan is not None or link is not None) else 3)
    )
    net = covered_deployment(side, n_random, seed)
    stack = deploy(net)
    va = VirtualArchitecture(side)
    spec = va.synthesize(CountAggregation(lambda c: True))
    t0 = time.perf_counter()
    result = stack.run_application(
        spec, loss_rate=loss, rng=np.random.default_rng(seed),
        reliable=reliable, max_retries=max_retries, wire_format=wire,
        fault_plan=plan, link_model=link,
    )
    wall = time.perf_counter() - t0
    if link is None and result.root_payload != side * side:
        raise RuntimeError(
            f"E1 count mismatch: got {result.root_payload}, want {side * side}"
        )
    metrics = {
        "side": float(side),
        "n_nodes": float(len(net)),
        "wall_s": wall,
        "transmissions": float(result.transmissions),
        "tx_per_s": result.transmissions / wall,
        "latency": result.latency,
        "events_processed": float(result.events_processed),
    }
    fp_parts: List[Any] = [
        result.ledger.fingerprint(),
        result.transmissions,
        result.drops,
        result.latency,
        result.events_processed,
    ]
    if plan is not None:
        report = result.fault_report
        assert report is not None
        metrics["failovers"] = float(len(report.failovers))
        metrics["reroutes"] = float(report.reroutes)
        metrics["frames_rejected"] = float(report.frames_rejected)
        fp_parts.extend([plan.fingerprint(), report.fingerprint()])
    if link is not None:
        assert result.link_faded is not None
        metrics["link_faded"] = float(result.link_faded)
        metrics["app_count"] = float(
            result.root_payload if len(result.exfiltrated) == 1 else -1
        )
        fp_parts.extend([link.fingerprint(), result.link_faded])
    return WorkloadOutcome(metrics=metrics, fingerprint=stable_digest(tuple(fp_parts)))


@workload("storm", params=("side", "n_random", "rounds", "loss", "jitter"))
def broadcast_storm(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """Every alive node broadcasts once per round; pure medium hot path."""
    side = int(params.get("side", 8))
    n_random = int(params.get("n_random", side * side * 6))
    rounds = int(params.get("rounds", 10))
    loss = float(params.get("loss", 0.0))
    jitter = float(params.get("jitter", 0.0))
    net = covered_deployment(side, n_random, seed)
    sim = Simulator()
    medium = WirelessMedium(
        sim, net, loss_rate=loss, jitter=jitter, rng=np.random.default_rng(seed)
    )
    ids = net.alive_ids()
    t0 = time.perf_counter()
    for r in range(rounds):
        for nid in ids:
            medium.broadcast(nid, "storm", r)
        sim.run()
    wall = time.perf_counter() - t0
    return WorkloadOutcome(
        metrics={
            "wall_s": wall,
            "transmissions": float(medium.stats.transmissions),
            "deliveries": float(medium.stats.deliveries),
            "drops": float(medium.stats.drops),
            "events_processed": float(sim.events_processed),
            "deliveries_per_s": medium.stats.deliveries / wall,
        },
        fingerprint=stable_digest(
            (
                medium.stats.fingerprint(),
                medium.ledger.fingerprint(),
                sim.events_processed,
            )
        ),
    )


@workload("regions", params=("side", "threshold", "blobs"))
def topographic_regions(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """The case study on the virtual architecture: sweep side x threshold."""
    from ..apps import GaussianBlobField, TopographicQueryApp

    side = int(params.get("side", 16))
    threshold = float(params.get("threshold", 0.5))
    blobs = params.get(
        "blobs", [(0.28, 0.32, 0.11, 1.0), (0.72, 0.66, 0.08, 0.9)]
    )
    va = VirtualArchitecture(side)
    app = TopographicQueryApp(va, GaussianBlobField([tuple(b) for b in blobs]), threshold)
    t0 = time.perf_counter()
    report = app.run_virtual()
    wall = time.perf_counter() - t0
    perf = report.performance
    return WorkloadOutcome(
        metrics={
            "wall_s": wall,
            "regions": float(report.regions),
            "correct": float(report.correct),
            "latency": perf.latency,
            "total_energy": perf.total_energy,
            "messages": float(perf.messages),
            "events_processed": float(perf.messages),
        },
        fingerprint=stable_digest(
            (
                report.regions,
                report.expected_regions,
                report.correct,
                perf.latency,
                perf.total_energy,
                perf.messages,
            )
        ),
    )


@workload(
    "churn",
    params=(
        "side", "n_random", "churn", "node_churn", "rotate", "wire",
        "midrun_kill",
    ),
)
def leader_churn(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """Failure/recovery cycle: kill leaders, recover, optionally rotate.

    ``churn`` is the fraction of cells whose bound leader is killed;
    ``node_churn`` additionally kills a uniform fraction of remaining
    nodes.  An unrecoverable deployment (emptied cell) is *not* an error —
    it is the measured outcome (``recovered = 0``), matching E8.

    ``midrun_kill`` > 0 additionally kills that many leaders *during* the
    post-recovery application round (in-run faults, DESIGN.md §10) —
    distinguishing the offline churn path above from the online
    self-healing one; the round then runs reliable with healing and the
    fault report folds into the fingerprint.
    """
    side = int(params.get("side", 4))
    n_random = int(params.get("n_random", 150))
    churn = float(params.get("churn", 0.25))
    node_churn = float(params.get("node_churn", 0.0))
    rotate = bool(params.get("rotate", False))
    wire = bool(params.get("wire", False))
    midrun_kill = int(params.get("midrun_kill", 0))
    if not 0.0 <= churn <= 1.0:
        raise ValueError(f"churn must be in [0, 1], got {churn}")
    net = covered_deployment(side, n_random, seed)
    stack = deploy(net)
    rng = np.random.default_rng(seed)
    cells = sorted(stack.binding.leaders)
    k = int(round(churn * len(cells)))
    victims = (
        [cells[i] for i in sorted(rng.choice(len(cells), size=k, replace=False))]
        if k
        else []
    )
    killed = kill_leaders(net, stack.binding, cells=victims)
    extra = kill_random_nodes(net, node_churn, rng=rng) if node_churn > 0 else []
    report = recover(net, previous=stack)
    metrics: Dict[str, float] = {
        "killed_leaders": float(len(killed)),
        "killed_random": float(len(extra)),
        "recovered": float(report.recovered),
        "reelected_cells": float(report.reelected_cells),
        "setup_messages": float(report.setup_messages),
        "setup_energy": report.setup_energy,
        "events_processed": 0.0,
    }
    fp_parts: List[Any] = [
        tuple(sorted(killed)),
        tuple(sorted(extra)),
        report.recovered,
        report.reelected_cells,
        report.setup_messages,
        report.setup_energy,
        tuple(report.precondition_problems),
    ]
    if report.recovered:
        live = rotate_leaders(net) if rotate else report.stack
        if rotate:
            moved = sum(
                1
                for cell in cells
                if live.binding.leaders.get(cell) != report.stack.binding.leaders.get(cell)
            )
            metrics["rotated_cells"] = float(moved)
            fp_parts.append(tuple(sorted((str(c), n) for c, n in live.binding.leaders.items())))
        va = VirtualArchitecture(side)
        plan = None
        if midrun_kill > 0:
            plan = plan_chaos(
                sorted(live.binding.leaders), kills=midrun_kill, at=0.5,
                spacing=0.05, seed=seed,
            )
        run = live.run_application(
            va.synthesize(CountAggregation(lambda c: True)),
            wire_format=wire,
            reliable=plan is not None,
            max_retries=8 if plan is not None else 3,
            fault_plan=plan,
        )
        metrics["app_count"] = float(run.root_payload)
        metrics["app_latency"] = run.latency
        metrics["events_processed"] = float(run.events_processed)
        fp_parts.extend([run.ledger.fingerprint(), run.transmissions, run.latency])
        if plan is not None:
            report = run.fault_report
            assert report is not None
            metrics["midrun_failovers"] = float(len(report.failovers))
            fp_parts.extend([plan.fingerprint(), report.fingerprint()])
    return WorkloadOutcome(metrics=metrics, fingerprint=stable_digest(tuple(fp_parts)))


@workload(
    "serve",
    params=(
        "side", "n_random", "n_queries", "tenants", "updates", "loss", "wire",
        "reliable", "cache", "mean_interarrival", "round_interval",
        "deadline", "tenant_budget", "max_staleness", "overload",
        "kill_leaders",
    ),
)
def query_serving(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """Persistent query serving over one deployed stack.

    Builds the deployment, populates level-1 distributed storage with one
    gathering round, then brings up a :class:`repro.serve.QueryEngine`
    and serves ``n_queries`` synthesized arrivals through admission
    batching.  ``updates`` > 0 splits the stream in half and mutates that
    many storage cells between the halves, so the sweep measures the
    cache's incremental-invalidation regime, not just all-hit/all-miss.
    The fingerprint folds the engine's full serving history, making
    serial-vs-sharded and wire-on/off equivalence checkable.

    Resilience axes (all default off, preserving legacy fingerprints):
    ``deadline`` bounds every query in virtual time with seeded retries,
    ``tenant_budget`` throttles each tenant's token bucket (with
    ``overload`` choosing shed vs defer), ``max_staleness`` lets tenants
    accept that many epochs of cache lag, and ``kill_leaders`` > 0 arms a
    mid-stream leader-kill chaos plan with healing so the sweep covers
    the degraded serving regime.  Outcome-taxonomy counts (DESIGN.md §16)
    are always emitted so analyze ingests shed/expired queries as named
    outcomes, never as failures.
    """
    from ..serve import QueryEngine, ServeConfig, TenantPolicy, synthesize_arrivals

    side = int(params.get("side", 4))
    n_random = int(params.get("n_random", side * side * 8))
    n_queries = int(params.get("n_queries", 16))
    tenants = int(params.get("tenants", 2))
    updates = int(params.get("updates", 0))
    loss = float(params.get("loss", 0.0))
    wire = bool(params.get("wire", False))
    reliable = bool(params.get("reliable", loss > 0.0))
    cache = bool(params.get("cache", True))
    mean_interarrival = float(params.get("mean_interarrival", 1.0))
    round_interval = float(params.get("round_interval", 2.0))
    deadline = float(params.get("deadline", 0.0)) or None
    tenant_budget = float(params.get("tenant_budget", 0.0)) or None
    max_staleness = int(params.get("max_staleness", 0))
    overload = str(params.get("overload", "shed"))
    kill_leaders = int(params.get("kill_leaders", 0))
    net = covered_deployment(side, n_random, seed)
    stack = deploy(net)
    va = VirtualArchitecture(side)
    gather = stack.run_application(
        va.synthesize(CountAggregation(lambda c: True), max_level=1)
    )
    default_policy = None
    if tenant_budget is not None or max_staleness > 0:
        default_policy = TenantPolicy(
            budget=tenant_budget, overload=overload, max_staleness=max_staleness
        )
    healing = None
    if kill_leaders > 0:
        healing = HealingConfig(heartbeat_interval=1.0, miss_threshold=2, horizon=24.0)
    engine = QueryEngine(
        stack,
        storage=dict(gather.exfiltrated),
        config=ServeConfig(
            loss_rate=loss,
            rng=np.random.default_rng(seed),
            reliable=reliable,
            wire_format=wire,
            cache=cache,
            deadline=deadline,
            default_policy=default_policy,
            healing=healing,
        ),
    )
    plan = None
    if kill_leaders > 0:
        plan = plan_chaos(
            sorted(engine.storage_cells), kills=kill_leaders, at=0.5,
            spacing=0.05, seed=seed,
        )
        fault_report = engine.arm_faults(plan)
    arrivals = synthesize_arrivals(
        sorted(stack.binding.leaders),
        n_queries,
        seed=seed,
        mean_interarrival=mean_interarrival,
        tenants=tenants,
    )
    split = len(arrivals) // 2 if updates > 0 else len(arrivals)
    t0 = time.perf_counter()
    first = engine.serve(arrivals[:split], round_interval, reduce_fn=sum)
    for i, cell in enumerate(engine.storage_cells[:updates]):
        engine.update_field(cell, seed + i)
    second = engine.serve(arrivals[split:], round_interval, reduce_fn=sum)
    wall = time.perf_counter() - t0
    outcomes = first.outcomes + second.outcomes
    hits = sum(o.cache_hits for o in outcomes)
    misses = sum(o.cache_misses for o in outcomes)
    queries = len(outcomes)
    counts: Dict[str, int] = {}
    for report in (first, second):
        for name, n in report.outcome_counts().items():
            counts[name] = counts.get(name, 0) + n
    metrics = {
        "queries": float(queries),
        "complete_queries": float(
            first.complete_queries + second.complete_queries
        ),
        "ok_queries": float(counts.get("ok", 0)),
        "partial_queries": float(counts.get("partial", 0)),
        "shed_queries": float(counts.get("shed", 0)),
        "expired_queries": float(counts.get("deadline_expired", 0)),
        "deferred": float(engine.stats.deferred),
        "retries": float(engine.stats.retries),
        "late_responses": float(engine.stats.late_responses),
        "stale_hits": float(engine.stats.stale_hits),
        "rounds": float(len(first.batches) + len(second.batches)),
        "cache_hits": float(hits),
        "cache_misses": float(misses),
        "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "transmissions": float(first.transmissions + second.transmissions),
        "energy": first.energy + second.energy,
        "misdirected": float(engine.stats.misdirected),
        "events_processed": float(engine.sim.events_processed),
        "wall_s": wall,
        "queries_per_s": queries / wall if wall > 0 else 0.0,
    }
    fp_parts = [engine.fingerprint(), first.fingerprint(), second.fingerprint()]
    if plan is not None:
        metrics["failovers"] = float(len(fault_report.failovers))
        fp_parts.extend([plan.fingerprint(), fault_report.fingerprint()])
    return WorkloadOutcome(
        metrics=metrics,
        fingerprint=stable_digest(tuple(fp_parts)),
    )


@workload("_sleep", params=("sleep_s",))
def _sleep(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """Test-only: sleep for ``sleep_s`` (exercises the hang-timeout path)."""
    duration = float(params.get("sleep_s", 0.05))
    time.sleep(duration)
    return WorkloadOutcome(
        metrics={"slept_s": duration, "events_processed": 0.0},
        fingerprint=stable_digest(("sleep", duration, seed)),
    )


@workload("_fail")
def _fail(params: Dict[str, Any], seed: int) -> WorkloadOutcome:
    """Test-only: always raises (exercises the structured-failure path)."""
    raise RuntimeError("injected workload failure")
