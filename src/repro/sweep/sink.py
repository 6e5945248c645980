"""JSONL result sink: append-only records, resume, determinism audit.

One sweep writes one JSONL file, one record per line, appended and flushed
as each run completes — so killing the orchestrator at any point loses at
most the line being written.  :func:`load_records` tolerates a truncated
final line for exactly that reason, which is what makes
resume-from-partial-results a plain restart: re-running the same spec
against the same sink skips every run that already has an ``ok`` record.

:func:`audit_determinism` checks the cross-shard determinism duplicates a
:class:`~repro.sweep.spec.SweepSpec` schedules (``audit_duplicates``):
every ``...#audit`` record must carry the same fingerprint as its primary,
even though the scheduler deliberately ran the two on different shards.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import IO, Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from .spec import AUDIT_SUFFIX


def _ends_mid_line(path: str) -> bool:
    """True iff the file exists, is non-empty, and lacks a final newline."""
    try:
        with open(path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            return fh.read(1) != b"\n"
    except (OSError, ValueError):
        return False


def append_record(path_or_fh: "str | IO[str]", record: Dict[str, Any]) -> None:
    """Append one record as a JSON line (flushed immediately).

    If the file ends in a torn, newline-less write (a killed
    orchestrator), a newline is inserted first so the new record never
    glues onto the corpse of the old one.
    """
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    if isinstance(path_or_fh, str):
        prefix = "\n" if _ends_mid_line(path_or_fh) else ""
        with open(path_or_fh, "a") as fh:
            fh.write(prefix + line + "\n")
    else:
        path_or_fh.write(line + "\n")
        path_or_fh.flush()


def iter_records(
    path: str, on_torn: Optional[Callable[[int, str], None]] = None
) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Stream ``(line_number, record)`` for each intact line of a sink file.

    Yields nothing if the file is missing.  The read half of the sink's
    durability contract, exported for the :mod:`repro.analyze` ingest
    layer: torn lines (a killed writer's truncated tail) are skipped, not
    fatal, and each one is reported to ``on_torn(line_number, line)`` so
    callers can account for the repair instead of silently absorbing it.
    Line numbers count every line of the file, blank and torn ones
    included, so an error can name the line an editor shows.
    Completeness is judged by run ids against the spec, never by line
    count, so dropping an unparseable line can only cause a run to be
    re-executed — exactly the safe direction.
    """
    if not os.path.exists(path):
        return
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError:
                # torn write from a killed orchestrator
                if on_torn is not None:
                    on_torn(lineno, line)


def load_records(path: str) -> List[Dict[str, Any]]:
    """All intact records of a sink file (empty if missing).

    Materialized :func:`iter_records` with torn-tail lines silently
    repaired — the resume path's historical interface.
    """
    return [record for _, record in iter_records(path)]


def completed_ok_ids(records: List[Dict[str, Any]], spec_hash: Optional[str] = None) -> Set[str]:
    """Run ids with a successful record (optionally for one spec only)."""
    return {
        r["run_id"]
        for r in records
        if r.get("status") == "ok"
        and (spec_hash is None or r.get("spec_hash") == spec_hash)
    }


@dataclass
class AuditReport:
    """Outcome of the cross-shard duplicated-seed determinism audit."""

    pairs_checked: int = 0
    mismatches: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff every audited pair agreed on its fingerprint."""
        return not self.mismatches


def audit_determinism(records: List[Dict[str, Any]]) -> AuditReport:
    """Compare every ``#audit`` record's fingerprint with its primary's.

    Pairs where either side failed are not counted — a structured failure
    is its own signal and already visible in the records.
    """
    by_id = {r["run_id"]: r for r in records if r.get("status") == "ok"}
    report = AuditReport()
    for run_id, dup in by_id.items():
        if not run_id.endswith(AUDIT_SUFFIX):
            continue
        primary = by_id.get(run_id[: -len(AUDIT_SUFFIX)])
        if primary is None:
            continue
        report.pairs_checked += 1
        if dup["fingerprint"] != primary["fingerprint"]:
            report.mismatches.append(
                {
                    "run_id": primary["run_id"],
                    "primary_fingerprint": primary["fingerprint"],
                    "audit_fingerprint": dup["fingerprint"],
                    "primary_shard": primary.get("shard"),
                    "audit_shard": dup.get("shard"),
                }
            )
    return report
