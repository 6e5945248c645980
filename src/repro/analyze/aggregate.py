"""Cross-sweep group-by aggregation: one pass over every sink.

A :class:`GroupQuery` names the question ("group the ``storm`` records by
``loss`` and summarize every metric"); :func:`aggregate_sinks` ingests
each sweep sink, refuses runs that two sinks both contain, and folds
every record into one :class:`GroupAggregate` per group in a single pass
(:func:`aggregate_records`).

Audit duplicates are excluded from the statistics (they exist to check
determinism, not to bias it); their fingerprint verdicts travel in the
ingest reports instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .ingest import (
    AnalyzeError,
    DuplicateRecordError,
    IngestReport,
    RunRecord,
    ingest_jsonl,
)
from .stats import Accumulator, ConfidenceInterval, confidence_interval


@dataclass(frozen=True)
class GroupQuery:
    """One aggregation question over a campaign.

    ``by`` lists the grid axes to group on (``None`` = every parameter,
    i.e. one group per grid point); ``metrics`` restricts which numeric
    metrics are summarized (``None`` = all); ``workload`` filters records
    to one workload kernel.
    """

    by: Optional[Tuple[str, ...]] = None
    metrics: Optional[Tuple[str, ...]] = None
    workload: Optional[str] = None

    def __post_init__(self) -> None:
        for name, value in (("by", self.by), ("metrics", self.metrics)):
            if value is not None and (
                not isinstance(value, tuple)
                or any(not isinstance(v, str) for v in value)
            ):
                raise AnalyzeError(f"GroupQuery.{name} must be a tuple of axis names")

    def group_key(self, record: RunRecord) -> str:
        """The group label one record lands in (sorted ``k=v`` pairs)."""
        params = record.param_dict()
        axes = sorted(params) if self.by is None else sorted(self.by)
        return ",".join(f"{axis}={params.get(axis)}" for axis in axes)

    def wants(self, record: RunRecord) -> bool:
        """True iff the record is in this query's population."""
        return self.workload is None or record.workload == self.workload


@dataclass
class GroupAggregate:
    """The summary of one group: run counts and per-metric moments."""

    key: str
    runs: int = 0
    failed: int = 0
    metrics: Dict[str, Accumulator] = field(default_factory=dict)

    def fold(self, record: RunRecord, wanted: Optional[Tuple[str, ...]]) -> None:
        """Fold one non-audit record in."""
        if not record.ok:
            self.failed += 1
            return
        self.runs += 1
        for name, value in record.metrics:
            if wanted is not None and name not in wanted:
                continue
            self.metrics.setdefault(name, Accumulator()).add(value)

    def intervals(self, confidence: float = 0.95) -> Dict[str, ConfidenceInterval]:
        """Per-metric CIs over the replicates (skips empty accumulators)."""
        return {
            name: confidence_interval(acc, confidence)
            for name, acc in sorted(self.metrics.items())
            if acc.count > 0
        }


def aggregate_records(
    records: Sequence[RunRecord], query: GroupQuery
) -> Dict[str, GroupAggregate]:
    """Fold typed records into one :class:`GroupAggregate` per group."""
    groups: Dict[str, GroupAggregate] = {}
    for record in records:
        if record.audit or not query.wants(record):
            continue
        key = query.group_key(record)
        group = groups.get(key)
        if group is None:
            group = groups[key] = GroupAggregate(key=key)
        group.fold(record, query.metrics)
    return groups


@dataclass
class AggregateResult:
    """One campaign aggregation: the groups and the ingest reports behind them."""

    query: GroupQuery
    groups: Dict[str, GroupAggregate]
    sources: List[IngestReport]

    @property
    def duplicates(self) -> List[Dict[str, Any]]:
        """Within-file duplicate reports from every ingested source."""
        return [d for src in self.sources for d in src.duplicates]

    @property
    def audit_mismatches(self) -> List[Dict[str, Any]]:
        """Audit-fingerprint mismatches from every ingested source."""
        return [m for src in self.sources for m in src.audit_mismatches]

    @property
    def torn_lines(self) -> int:
        """Torn JSONL lines repaired across every ingested source."""
        return sum(src.torn_lines for src in self.sources)

    @property
    def skipped_kinds(self) -> int:
        """Non-``run`` records skipped across every ingested source."""
        return sum(src.skipped_kinds for src in self.sources)


def aggregate_sinks(paths: Sequence[str], query: GroupQuery) -> AggregateResult:
    """Group-by over every sweep sink in ``paths``, in one pass.

    The same ok run in two different files is a
    :class:`DuplicateRecordError`: the overlap means the same campaign
    file was passed twice or two sinks overlap, and counting it twice
    would bias every moment.  Within one file, resume/retry duplicates
    are deduplicated (and reported) by the ingest layer.
    """
    sources: List[IngestReport] = []
    seen_runs: Dict[str, str] = {}
    for path in paths:
        report = ingest_jsonl(path)
        run_ids = [r.run_id for r in report.records if r.ok and not r.audit]
        overlap = sorted(run_id for run_id in run_ids if run_id in seen_runs)
        if overlap:
            head = ", ".join(overlap[:5])
            raise DuplicateRecordError(
                f"{path}: {len(overlap)} run(s) already ingested from "
                f"{seen_runs[overlap[0]]} (e.g. {head}) — the same "
                f"campaign file was passed twice or two sinks overlap"
            )
        seen_runs.update(dict.fromkeys(run_ids, path))
        sources.append(report)
    groups = aggregate_records(
        [record for src in sources for record in src.records], query
    )
    return AggregateResult(query=query, groups=groups, sources=sources)
