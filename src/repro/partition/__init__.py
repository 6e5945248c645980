"""Space-partitioned parallel simulation (DESIGN.md §12).

Splits a deployment into K contiguous cell-aligned shards, each owning a
simulator/medium/process slice, advanced in conservative-lookahead
windows with boundary traffic exchanged at barriers — multi-core speedup
for a *single* broadcast storm, with serial == partitioned fingerprints
guaranteed for every seeded configuration.  Deployed application rounds
run serially (DESIGN.md §12 says why).
"""

from .plan import ShardPlan, plan_stripes
from .runner import ProcBudget, StormOutcome, effective_procs, run_partitioned_storm

__all__ = [
    "ProcBudget",
    "ShardPlan",
    "StormOutcome",
    "effective_procs",
    "plan_stripes",
    "run_partitioned_storm",
]
