"""Space-partitioned parallel simulation (DESIGN.md §12).

Splits a deployment into K contiguous cell-aligned shards, each owning a
simulator/medium/process slice, advanced in conservative-lookahead
windows with boundary traffic exchanged at barriers — multi-core speedup
for a *single* run, with serial == partitioned fingerprints guaranteed
for every seeded configuration.
"""

from .plan import ShardPlan, plan_stripes
from .runner import (
    ProcBudget,
    StormOutcome,
    SWEEP_WORKERS_ENV,
    default_lookahead,
    effective_procs,
    merge_fault_reports,
    run_partitioned_application,
    run_partitioned_storm,
)

__all__ = [
    "ProcBudget",
    "ShardPlan",
    "StormOutcome",
    "SWEEP_WORKERS_ENV",
    "default_lookahead",
    "effective_procs",
    "merge_fault_reports",
    "plan_stripes",
    "run_partitioned_application",
    "run_partitioned_storm",
]
