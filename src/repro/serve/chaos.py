"""Chaos soak: resilient serving under an armed kill/partition/corrupt mix.

The acceptance campaign for DESIGN.md §16: a seed-deterministic serving
run that arms a mixed :func:`~repro.runtime.faults.plan_chaos` schedule
(leader kills, a link partition with restore, frame corruption) against
a *live* :class:`~repro.serve.engine.QueryEngine` with healing enabled,
drives an overloaded multi-tenant arrival stream through it, and then
checks the liveness invariant:

    every admitted query terminates with exactly one named outcome
    (``ok`` / ``partial`` / ``shed`` / ``deadline_expired``) — none
    lost, none hung, none silently partial.

The whole soak — gather round included — is a pure function of its
arguments, so its fingerprint must be byte-identical across repeat runs
and with the wire codec on or off; ``tests/test_serve_resilience.py``
asserts both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..core.coords import GridCoord
from ..runtime.faults import FaultReport, HealingConfig, plan_chaos
from ..simulator.trace import stable_digest
from .admission import TenantPolicy, synthesize_arrivals
from .engine import OUTCOMES, QueryEngine, ServeConfig, ServeReport


def build_serving_stack(side: int = 4, seed: int = 7, n_nodes: int = 140):
    """A deployed stack plus gathered storage, ready to serve."""
    from ..core import CountAggregation, VirtualArchitecture
    from ..deployment import covered_deployment
    from ..runtime.stack import deploy

    stack = deploy(covered_deployment(side, n_nodes, seed))
    va = VirtualArchitecture(side)
    run = stack.run_application(
        va.synthesize(CountAggregation(lambda c: True), max_level=1)
    )
    return stack, dict(run.exfiltrated)


#: The soak's tenant mix — one tenant per resilience contract under test:
#: tenant 0 sheds overload, tenant 1 defers it (with a tight deadline, so
#: queueing time burns real budget), tenant 2 is unthrottled but accepts
#: two epochs of cache staleness.
def soak_policies() -> Dict[int, TenantPolicy]:
    return {
        0: TenantPolicy(budget=1.0, overload="shed", deadline=16.0),
        1: TenantPolicy(
            budget=1.0, overload="defer", max_defer_rounds=3, deadline=4.0
        ),
        2: TenantPolicy(max_staleness=2),
    }


@dataclass
class ChaosSoakResult:
    """Everything one chaos soak observed, plus its fingerprint."""

    queries: int
    counts: Dict[str, int]
    lost: int
    leftover_active: int
    failovers: int
    detected_failures: int
    frames_corrupted: int
    shed: int
    deferred: int
    expired: int
    retries: int
    stale_hits: int
    probe_complete: bool
    fingerprint: str

    @property
    def liveness_ok(self) -> bool:
        """The §16 invariant: every query terminated, exactly once, named."""
        return (
            self.lost == 0
            and self.leftover_active == 0
            and sum(self.counts.values()) == self.queries
            and set(self.counts) == set(OUTCOMES)
        )


def _partition_links(
    stack, storage_cells: Tuple[GridCoord, ...]
) -> Tuple[Tuple[int, int], ...]:
    """Links to sever: the last storage leader cut off from its cell.

    Derived purely from the deployed stack (binding + adjacency), so the
    same seed always partitions the same links.
    """
    leader = stack.binding.leaders.get(storage_cells[-1])
    if leader is None:
        return ()
    return stack.network.intra_cell_links(leader)


def chaos_soak(
    side: int = 4,
    n_queries: int = 18,
    seed: int = 7,
    wire: bool = False,
    loss: float = 0.08,
) -> ChaosSoakResult:
    """One full resilience campaign; see the module docstring.

    Seed-deterministic end to end: deployment, gather, fault schedule,
    arrival stream, and every retry/backoff delay derive from ``seed``
    and the arguments alone.
    """
    stack, storage = build_serving_stack(side=side, seed=seed)
    storage_cells = tuple(sorted(storage))
    query_cells = sorted(stack.binding.leaders)
    plan = plan_chaos(
        storage_cells[:-1],  # the last storage cell is the partition victim
        links=_partition_links(stack, storage_cells),
        kills=2,
        at=2.5,
        spacing=2.0,
        corrupt_frames=3,
        partition_at=1.0,
        restore_at=9.0,
        seed=seed + 1,
    )
    config = ServeConfig(
        loss_rate=loss,
        rng=np.random.default_rng(seed + 2),
        reliable=True,
        wire_format=wire,
        healing=HealingConfig(heartbeat_interval=1.0, miss_threshold=2, horizon=10.0),
        tenant_policies=soak_policies(),
        deadline=20.0,
        query_retries=3,
        retry_base=1.5,
    )
    engine = QueryEngine(stack, storage, config)
    report_faults: FaultReport = engine.arm_faults(plan)
    arrivals = synthesize_arrivals(
        query_cells, n_queries, seed=seed + 3, mean_interarrival=0.35, tenants=3
    )
    report: ServeReport = engine.serve(arrivals, round_interval=2.0, reduce_fn=sum)
    counts = report.outcome_counts()
    # continuity probe: after the whole chaos campaign the engine must
    # still answer — over the failed-over cells — without reconstruction
    probe = engine.query(query_cells[-1], reduce_fn=sum)
    fingerprint = stable_digest(
        (
            engine.fingerprint(),
            report.fingerprint(),
            plan.fingerprint(),
            probe.digest_tuple(),
        )
    )
    return ChaosSoakResult(
        queries=n_queries,
        counts=counts,
        lost=n_queries - report.queries,
        leftover_active=len(engine._active),
        failovers=len(report_faults.failovers),
        detected_failures=report_faults.detected_failures,
        frames_corrupted=report_faults.frames_corrupted,
        shed=engine.stats.shed,
        deferred=engine.stats.deferred,
        expired=engine.stats.expired_queries,
        retries=engine.stats.retries,
        stale_hits=engine.stats.stale_hits,
        probe_complete=probe.complete,
        fingerprint=fingerprint,
    )
