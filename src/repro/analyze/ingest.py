"""Ingest: sweep JSONL sinks into typed records.

The boundary between "files a campaign left on disk" and "data the
analysis math is allowed to touch".  Everything downstream of this module
sees only validated, deduplicated, typed values: :func:`ingest_jsonl`
reads one sweep sink through the sink layer's torn-tail repair
(:func:`repro.sweep.iter_records`), **rejects unknown record schema
versions loudly** (:class:`UnknownSchemaError` naming the file and line),
deduplicates resumed/re-run ``(point, replicate)`` records so nothing is
double-counted (reported, never silent), and checks every ``#audit``
duplicate's fingerprint against its primary with the sweep's own
:func:`repro.sweep.audit_determinism`.

A record that fails validation is an error, not a skip: a sink full of
records this code cannot interpret must never be summarized as if it had
been empty.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..sweep.sink import audit_determinism, iter_records
from ..sweep.worker import RECORD_SCHEMA


class AnalyzeError(Exception):
    """Base class of every analysis-pipeline error."""


class UnknownSchemaError(AnalyzeError):
    """A record or document carries a schema version this code can't read."""


class DuplicateRecordError(AnalyzeError):
    """The same run appears in more than one ingested source file."""


@dataclass(frozen=True)
class RunRecord:
    """One validated sweep-run result, typed and source-attributed."""

    run_id: str
    spec_hash: str
    name: str
    workload: str
    point: int
    replicate: int
    audit: bool
    seed: int
    shard: int
    attempt: int
    status: str
    error: Optional[str]
    elapsed_s: float
    params: Tuple[Tuple[str, Any], ...]
    metrics: Tuple[Tuple[str, float], ...]
    fingerprint: Optional[str]
    source: str

    @property
    def ok(self) -> bool:
        """True iff the run completed successfully."""
        return self.status == "ok"

    def param_dict(self) -> Dict[str, Any]:
        """The grid-point parameters as a plain dict."""
        return dict(self.params)

    def metric_dict(self) -> Dict[str, float]:
        """The numeric metrics as a plain dict."""
        return dict(self.metrics)

    @classmethod
    def parse(
        cls, doc: Mapping[str, Any], source: str = "<memory>", lineno: int = 0
    ) -> "RunRecord":
        """Validate and type one raw JSONL record.

        Raises :class:`UnknownSchemaError` for any schema version other
        than the one this code was written against — forward compatibility
        is an explicit migration, never a guess.
        """
        schema = doc.get("schema")
        if schema != RECORD_SCHEMA:
            raise UnknownSchemaError(
                f"{source}:{lineno}: record schema {schema!r} is not the "
                f"supported version {RECORD_SCHEMA} "
                f"(run_id={doc.get('run_id')!r})"
            )
        try:
            metrics = tuple(
                sorted(
                    (str(k), float(v))
                    for k, v in dict(doc.get("metrics") or {}).items()
                    if isinstance(v, (int, float)) and not isinstance(v, bool)
                )
            )
            return cls(
                run_id=str(doc["run_id"]),
                spec_hash=str(doc["spec_hash"]),
                name=str(doc.get("name", "")),
                workload=str(doc["workload"]),
                point=int(doc["point"]),
                replicate=int(doc["replicate"]),
                audit=bool(doc.get("audit", False)),
                seed=int(doc["seed"]),
                shard=int(doc.get("shard", -1)),
                attempt=int(doc.get("attempt", 1)),
                status=str(doc["status"]),
                error=doc.get("error"),
                elapsed_s=float(doc.get("elapsed_s", 0.0)),
                params=tuple(sorted(dict(doc.get("params") or {}).items())),
                metrics=metrics,
                fingerprint=doc.get("fingerprint"),
                source=source,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise UnknownSchemaError(
                f"{source}:{lineno}: malformed record "
                f"(run_id={doc.get('run_id')!r}): {exc}"
            ) from exc


@dataclass
class IngestReport:
    """Everything :func:`ingest_jsonl` learned about one sink file.

    ``records`` is the deduplicated, analysis-ready view; the bookkeeping
    fields say what the repair and validation passes actually did, so a
    summary can disclose them instead of silently absorbing them.
    """

    path: str
    records: List[RunRecord] = field(default_factory=list)
    torn_lines: int = 0
    skipped_kinds: int = 0
    duplicates: List[Dict[str, Any]] = field(default_factory=list)
    audit_mismatches: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok_records(self) -> List[RunRecord]:
        """The successful records (what the statistics run on)."""
        return [r for r in self.records if r.ok]

    @property
    def clean(self) -> bool:
        """True iff no audit fingerprint disagreed with its primary."""
        return not self.audit_mismatches


def _dedupe(records: List[RunRecord]) -> Tuple[List[RunRecord], List[Dict[str, Any]]]:
    """Collapse repeated run ids to one record each, reporting the repeats.

    Resume semantics: a later record supersedes an earlier one for the
    same run id, and an ``ok`` record supersedes a structured failure
    regardless of order (a retried run's failure is history, not data).
    Only repeated *ok* records are reported as duplicates — a failure
    followed by its successful retry is the sink working as designed.
    """
    kept: Dict[str, RunRecord] = {}
    ok_seen: Dict[str, List[RunRecord]] = {}
    order: List[str] = []
    for record in records:
        if record.run_id not in kept:
            order.append(record.run_id)
            kept[record.run_id] = record
        else:
            previous = kept[record.run_id]
            if record.ok or not previous.ok:
                kept[record.run_id] = record
        if record.ok:
            ok_seen.setdefault(record.run_id, []).append(record)
    duplicates = [
        {
            "run_id": run_id,
            "count": len(group),
            "fingerprints_agree": len({r.fingerprint for r in group}) == 1,
        }
        for run_id, group in sorted(ok_seen.items())
        if len(group) > 1
    ]
    return [kept[run_id] for run_id in order], duplicates


def ingest_jsonl(path: str) -> IngestReport:
    """One sweep sink file -> validated, deduplicated typed records.

    A missing file is an :class:`AnalyzeError`, not an empty campaign, and
    so is any path that is not a regular file (a directory, say).
    """
    if not os.path.exists(path):
        raise AnalyzeError(f"{path}: no such sink file")
    if not os.path.isfile(path):
        raise AnalyzeError(f"{path}: not a regular file")
    report = IngestReport(path=path)

    def count_torn(lineno: int, line: str) -> None:
        report.torn_lines += 1

    raw: List[RunRecord] = []
    for lineno, doc in iter_records(path, on_torn=count_torn):
        if doc.get("kind", "run") != "run":
            report.skipped_kinds += 1
            continue
        raw.append(RunRecord.parse(doc, source=path, lineno=lineno))
    report.records, report.duplicates = _dedupe(raw)
    report.audit_mismatches = audit_determinism([vars(r) for r in report.records]).mismatches
    return report
