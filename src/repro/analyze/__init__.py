"""``repro.analyze`` — campaign analytics: from JSONL sinks to conclusions.

The results pipeline that pairs the :mod:`repro.sweep` runner (DESIGN.md
§15): million-run campaigns land as append-only JSONL sinks, and this
package turns them into checked, publishable answers —

* :mod:`repro.analyze.ingest` — typed, schema-validated records through
  the sink layer's torn-tail repair, with resume-duplicate deduplication
  and audit-fingerprint verification;
* :mod:`repro.analyze.stats` — Welford running accumulators and
  t/normal confidence intervals over replicates (no SciPy at runtime);
* :mod:`repro.analyze.aggregate` — one-pass group-by over grid axes
  across every sink of a campaign;
* :mod:`repro.analyze.tables` — deterministic text/markdown tables;
* :mod:`repro.analyze.cli` — the ``python -m repro analyze`` subcommand.

Quick use::

    from repro.analyze import GroupQuery, aggregate_sinks

    result = aggregate_sinks(["loss.jsonl"], GroupQuery(by=("loss",)))
    for key, group in sorted(result.groups.items()):
        print(key, group.intervals(0.95)["latency"])
"""

from .aggregate import (
    AggregateResult,
    GroupAggregate,
    GroupQuery,
    aggregate_records,
    aggregate_sinks,
)
from .ingest import (
    AnalyzeError,
    DuplicateRecordError,
    IngestReport,
    RunRecord,
    UnknownSchemaError,
    ingest_jsonl,
)
from .stats import (
    Accumulator,
    ConfidenceInterval,
    confidence_interval,
    t_critical,
    z_critical,
)
from .tables import (
    campaign_table,
    format_table,
    markdown_table,
)

__all__ = [
    "Accumulator",
    "AggregateResult",
    "AnalyzeError",
    "ConfidenceInterval",
    "DuplicateRecordError",
    "GroupAggregate",
    "GroupQuery",
    "IngestReport",
    "RunRecord",
    "UnknownSchemaError",
    "aggregate_records",
    "aggregate_sinks",
    "campaign_table",
    "confidence_interval",
    "format_table",
    "ingest_jsonl",
    "markdown_table",
    "t_critical",
    "z_critical",
]
