"""``repro.sweep`` — sharded multiprocess experiment-sweep orchestration.

The subsystem that turns the one-`Simulator`-per-core reproduction into a
high-throughput experiment platform:

* :mod:`repro.sweep.spec` — declarative :class:`SweepSpec` grids with
  deterministic per-run seed derivation (``spec_hash x point x replicate``);
* :mod:`repro.sweep.workloads` — the registry of seed-pure experiment
  kernels (``e1``, ``storm``, ``regions``, ``churn``, ``serve``);
* :mod:`repro.sweep.scheduler` — the multiprocess shard scheduler with
  per-run timeouts, bounded retry of crashed/hung workers, and structured
  failure records;
* :mod:`repro.sweep.sink` — the append-only JSONL result sink with
  resume-from-partial-results and the cross-shard determinism audit;
* :mod:`repro.sweep.cli` — the ``python -m repro sweep`` subcommand.

Quick use::

    from repro.sweep import SweepSpec, run_sweep, audit_determinism

    spec = SweepSpec(name="loss-study", workload="storm",
                     grid={"loss": [0.0, 0.1, 0.2]}, replicates=8,
                     audit_duplicates=3)
    records = run_sweep(spec, out_path="loss.jsonl", workers=4)
    assert audit_determinism(records).ok
"""

from .scheduler import ShardStatus, SweepProgress, print_progress, run_sweep
from .sink import (
    AuditReport,
    append_record,
    audit_determinism,
    completed_ok_ids,
    iter_records,
    load_records,
)
from .spec import RunSpec, SweepSpec, derive_seed
from .worker import execute_run, failure_record
from .workloads import (
    WORKLOADS,
    WorkloadOutcome,
    get_workload,
    public_workloads,
    workload,
)

__all__ = [
    "AuditReport",
    "RunSpec",
    "ShardStatus",
    "SweepProgress",
    "SweepSpec",
    "WORKLOADS",
    "WorkloadOutcome",
    "append_record",
    "audit_determinism",
    "completed_ok_ids",
    "derive_seed",
    "execute_run",
    "failure_record",
    "get_workload",
    "iter_records",
    "load_records",
    "print_progress",
    "public_workloads",
    "run_sweep",
    "workload",
]
