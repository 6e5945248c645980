"""``repro.analyze`` — campaign analytics: from JSONL sinks to conclusions.

The results pipeline that pairs the :mod:`repro.sweep` runner (DESIGN.md
§15): million-run campaigns land as append-only JSONL sinks, and this
package turns them into checked, publishable answers —

* :mod:`repro.analyze.ingest` — typed, schema-validated records through
  the sink layer's torn-tail repair, with resume-duplicate deduplication
  and audit-fingerprint verification;
* :mod:`repro.analyze.stats` — Welford-style combinable accumulators and
  t/normal confidence intervals over replicates (no SciPy at runtime);
* :mod:`repro.analyze.aggregate` / :mod:`repro.analyze.cache` — group-by
  over grid axes with mergeable summaries, disk-memoized per
  ``(file sha256, query)`` so an unchanged campaign re-analyzes with
  zero record re-reads;
* :mod:`repro.analyze.tables` — deterministic text/markdown tables;
* :mod:`repro.analyze.cli` — the ``python -m repro analyze`` subcommand.

Quick use::

    from repro.analyze import GroupQuery, MemoizedAggregator

    result = MemoizedAggregator().aggregate(
        ["loss.jsonl"], GroupQuery(by=("loss",))
    )
    for key, group in sorted(result.groups.items()):
        print(key, group.intervals(0.95)["latency"])
"""

from .aggregate import (
    GroupAggregate,
    GroupQuery,
    aggregate_records,
    merge_groups,
)
from .cache import (
    AggregateResult,
    CacheStats,
    MemoizedAggregator,
    file_sha256,
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
    "CacheStats",
    "ConfidenceInterval",
    "DuplicateRecordError",
    "GroupAggregate",
    "GroupQuery",
    "IngestReport",
    "MemoizedAggregator",
    "RunRecord",
    "UnknownSchemaError",
    "aggregate_records",
    "campaign_table",
    "confidence_interval",
    "file_sha256",
    "format_table",
    "ingest_jsonl",
    "markdown_table",
    "merge_groups",
    "t_critical",
    "z_critical",
]
