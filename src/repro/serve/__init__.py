"""Persistent query serving over the deployed network.

The paper's end goal is topographic *querying*: a querier leader
requests the stored aggregates of storage leaders over the emulated grid
and reduces the responses.  This package is the one query path, a
long-lived engine for grid-cell query serving (a one-shot query is a
cache-off engine serving a single query):

* :class:`~repro.serve.engine.QueryEngine` keeps one simulator, medium,
  and per-node transport process set alive across queries, so repeat
  queries pay no setup and the virtual clock forms a single monotone
  serving timeline;
* the admission layer (:mod:`repro.serve.admission`) turns a
  seed-deterministic concurrent arrival stream into protocol rounds,
  batching co-arriving queries into one radio phase, with per-tenant
  token buckets that deterministically *shed* or *defer* overload
  (:class:`~repro.serve.admission.TenantPolicy`);
* querier leaders cache collected aggregates keyed by a per-cell
  freshness epoch, with incremental invalidation when fields change
  (:meth:`~repro.serve.engine.QueryEngine.update_field`) or when faults
  from the :class:`~repro.runtime.faults.FaultPlan` machinery dirty
  a cell — warm queries answer without touching the radio, and tenants
  may trade bounded staleness (``max_staleness`` epochs) for silence;
* the resilience layer (DESIGN.md §16) guarantees every admitted query
  terminates with exactly one named outcome (``ok`` / ``partial`` /
  ``shed`` / ``deadline_expired``): deadline-bound queries retry missing
  cells under seeded backoff then disclose what they have, and with
  ``healing`` configured the engine keeps serving across leader failover
  (:mod:`repro.serve.chaos` is the acceptance campaign).

The acceptance contracts are pinned by ``tests/test_serve_engine.py``
and ``tests/test_serve_resilience.py``.
"""

from .admission import (
    AdmissionController,
    Arrival,
    TenantPolicy,
    synthesize_arrivals,
)
from .chaos import ChaosSoakResult, chaos_soak
from .engine import (
    OUTCOMES,
    BatchResult,
    EngineStats,
    QueryCall,
    QueryEngine,
    QueryOutcome,
    ServeConfig,
    ServeReport,
)

__all__ = [
    "AdmissionController",
    "Arrival",
    "BatchResult",
    "ChaosSoakResult",
    "EngineStats",
    "OUTCOMES",
    "QueryCall",
    "QueryEngine",
    "QueryOutcome",
    "ServeConfig",
    "ServeReport",
    "TenantPolicy",
    "chaos_soak",
    "synthesize_arrivals",
]
