"""Admission control: a concurrent query stream batched into rounds.

A serving engine facing "millions of users" cannot run one radio phase
per query; it admits the queries that arrived during a round window
together and answers them in one protocol round.  This module provides
the pieces the engine composes:

* :func:`synthesize_arrivals` — a seed-deterministic arrival schedule
  (exponential interarrivals, query cells and tenants drawn from a
  ``numpy`` generator), the pure-function stream every sweep/benchmark
  run replays byte-identically;
* :class:`TenantPolicy` / :class:`AdmissionController` — per-tenant
  overload control (WSN-virtualization style: tenants share the deployed
  network but carry their own budgets).  Each tenant owns a token bucket
  refilled once per admission round; a query that finds the bucket empty
  is *shed* (rejected with the named ``shed`` outcome) or *deferred* to
  the next round, by tenant policy.  Shedding is deterministic — it
  depends only on the stream and the policies, never on wall clocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.coords import GridCoord

#: Valid ``TenantPolicy.overload`` values: what happens to a query that
#: finds its tenant's token bucket empty at admission.
OVERLOAD_POLICIES = ("shed", "defer")


@dataclass(frozen=True)
class Arrival:
    """One query arriving at the engine's front door.

    ``cells`` optionally restricts the query to a subset of the storage
    cells (``None`` = aggregate over everything stored); ``tenant`` is an
    opaque id used only for per-tenant accounting — tenants share the
    deployed network, WSN-virtualization style.  ``deadline`` is the
    query's completion budget in virtual time, measured from its
    *admission* (``None`` = unbounded); an incomplete answer is retried
    under seeded backoff until the deadline, then disclosed as partial
    or expired — see :mod:`repro.serve.engine`.
    """

    time: float
    query_cell: GridCoord
    tenant: int = 0
    cells: Optional[Tuple[GridCoord, ...]] = None
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"arrival time must be >= 0, got {self.time}")
        if self.tenant < 0:
            raise ValueError(f"arrival tenant must be >= 0, got {self.tenant}")
        if self.cells is not None and len(self.cells) == 0:
            raise ValueError("arrival cells must be None or a non-empty tuple, got ()")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"arrival deadline must be > 0, got {self.deadline}")


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant serving contract: budget, overload behaviour, freshness.

    ``budget`` is the number of tokens added to the tenant's bucket per
    admission round (``None`` = unlimited admission); the bucket holds at
    most one round's worth, and at least one token (:attr:`bucket_cap`).
    ``overload`` picks what happens to a query that finds the bucket
    empty: ``"shed"`` rejects it immediately with the named
    ``shed`` outcome, ``"defer"`` re-queues it ahead of the next round's
    arrivals (at most ``max_defer_rounds`` times, then it is shed — a
    query is never parked forever).  ``deadline`` is the tenant's default
    completion budget in virtual time from admission (overridden by a
    per-arrival deadline); a *deferred* query's deadline shrinks by one
    round interval per deferral, so queueing time is not free.
    ``max_staleness`` is the tenant's freshness contract: a cached
    aggregate may be served if it is at most this many freshness epochs
    behind the cell's current epoch (0 = only perfectly fresh entries,
    the strict default); every answer reports the worst staleness it was
    served at.
    """

    budget: Optional[float] = None
    overload: str = "shed"
    deadline: Optional[float] = None
    max_staleness: int = 0
    max_defer_rounds: int = 8

    def __post_init__(self) -> None:
        if self.budget is not None and self.budget < 0:
            raise ValueError(f"tenant budget must be >= 0, got {self.budget}")
        if self.overload not in OVERLOAD_POLICIES:
            raise ValueError(
                f"unknown overload policy {self.overload!r}; "
                f"expected one of {OVERLOAD_POLICIES}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"tenant deadline must be > 0, got {self.deadline}")
        if self.max_staleness < 0:
            raise ValueError(
                f"tenant max_staleness must be >= 0, got {self.max_staleness}"
            )
        if self.max_defer_rounds < 0:
            raise ValueError(
                f"tenant max_defer_rounds must be >= 0, got {self.max_defer_rounds}"
            )

    @property
    def bucket_cap(self) -> Optional[float]:
        """The bucket's token capacity, ``max(budget, 1)`` (``None`` =
        unlimited tenant)."""
        if self.budget is None:
            return None
        return max(self.budget, 1.0)


#: One queued query: the arrival plus how many rounds it has been
#: deferred so far (0 = fresh from the stream).
QueuedArrival = Tuple[Arrival, int]


class AdmissionController:
    """Per-tenant token-bucket gate, one instance per serving campaign.

    Buckets start full (at :attr:`TenantPolicy.bucket_cap`) and gain
    ``budget`` tokens at every admission round; each admitted query costs
    one token.  :meth:`admit_round` partitions a round's queue — deferred
    queries first (FIFO), then the round's fresh arrivals in stream order
    — into admitted / deferred / shed, deterministically.
    """

    def __init__(
        self,
        policies: Optional[Dict[int, TenantPolicy]] = None,
        default: Optional[TenantPolicy] = None,
    ):
        self.policies = dict(policies or {})
        self.default = default or TenantPolicy()
        self._buckets: Dict[int, float] = {}

    def policy_for(self, tenant: int) -> TenantPolicy:
        """The policy governing ``tenant`` (falling back to the default)."""
        return self.policies.get(tenant, self.default)

    def _bucket(self, tenant: int, policy: TenantPolicy) -> float:
        cap = policy.bucket_cap
        assert cap is not None
        if tenant not in self._buckets:
            self._buckets[tenant] = cap
        return self._buckets[tenant]

    def refill(self) -> None:
        """Credit every known tenant one round's budget (up to its cap)."""
        for tenant in self._buckets:
            policy = self.policy_for(tenant)
            cap = policy.bucket_cap
            if cap is None:
                continue
            self._buckets[tenant] = min(
                cap, self._buckets[tenant] + (policy.budget or 0.0)
            )

    def admit_round(
        self, queue: Sequence[QueuedArrival]
    ) -> Tuple[List[QueuedArrival], List[QueuedArrival], List[QueuedArrival]]:
        """One admission round over ``queue``.

        Returns ``(admitted, deferred, shed)``; deferred entries carry an
        incremented defer count and must be fed back ahead of the next
        round's queue.  The caller refills buckets implicitly — this
        method credits each tenant its per-round ``budget`` before
        spending, so calling it once per round is the whole protocol.
        """
        self.refill()
        admitted: List[QueuedArrival] = []
        deferred: List[QueuedArrival] = []
        shed: List[QueuedArrival] = []
        for arrival, defers in queue:
            policy = self.policy_for(arrival.tenant)
            if policy.budget is None:
                admitted.append((arrival, defers))
                continue
            if self._bucket(arrival.tenant, policy) >= 1.0:
                self._buckets[arrival.tenant] -= 1.0
                admitted.append((arrival, defers))
            elif policy.overload == "defer" and defers < policy.max_defer_rounds:
                deferred.append((arrival, defers + 1))
            else:
                shed.append((arrival, defers))
        return admitted, deferred, shed


def synthesize_arrivals(
    query_cells: Sequence[GridCoord],
    n_queries: int,
    seed: int = 0,
    mean_interarrival: float = 1.0,
    tenants: int = 1,
) -> List[Arrival]:
    """A seed-deterministic query stream over ``query_cells``.

    Interarrival gaps are exponential with mean ``mean_interarrival``;
    the query cell and tenant of each arrival are drawn uniformly.  The
    arrivals carry no deadline of their own (their tenant's, else the
    engine's, applies).  The result is a pure function of the arguments,
    so sweeps and benchmarks replaying the same seed serve the identical
    stream.
    """
    if not query_cells:
        raise ValueError("query_cells must be non-empty")
    if n_queries < 0:
        raise ValueError(f"n_queries must be >= 0, got {n_queries}")
    if mean_interarrival <= 0:
        raise ValueError(f"mean_interarrival must be > 0, got {mean_interarrival}")
    if tenants < 1:
        raise ValueError(f"tenants must be >= 1, got {tenants}")
    cells = sorted(set(query_cells))
    rng = np.random.default_rng(seed)
    now = 0.0
    arrivals: List[Arrival] = []
    for _ in range(n_queries):
        now += float(rng.exponential(mean_interarrival))
        arrivals.append(
            Arrival(
                time=now,
                query_cell=cells[int(rng.integers(len(cells)))],
                tenant=int(rng.integers(tenants)),
            )
        )
    return arrivals
