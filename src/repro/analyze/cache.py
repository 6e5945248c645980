"""Disk-memoized campaign aggregation: only new shards are ever re-read.

A campaign that grows by appending sink files (or by appending records to
a new shard's sink) should cost re-analysis proportional to the *new*
data, not the whole history.  :class:`MemoizedAggregator` keeps one memo
entry per ``(sink file sha256, query hash)`` pair under a cache directory;
an unchanged file's partial :class:`~repro.analyze.aggregate.GroupAggregate`
dict is loaded from the memo without parsing a single record, and the
partials merge associatively into the campaign answer.

The :class:`CacheStats` counters are part of the contract, not telemetry:
``tests/test_analyze_ingest.py`` asserts that re-aggregating an unchanged
campaign performs **zero** record re-reads, and that growing the campaign
re-reads only the changed file.

Cross-file duplicate runs are an error (:class:`DuplicateRecordError`):
once two files' partials both contain a run, the merged moments cannot be
un-double-counted, so the overlap is reported loudly instead.  Within one
file, resume/retry duplicates are deduplicated by the ingest layer before
the partial is built.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .aggregate import GroupAggregate, GroupQuery, aggregate_records, merge_groups
from .ingest import DuplicateRecordError, IngestReport, ingest_jsonl

#: Version tag of the memo-entry layout; bump to invalidate every memo.
CACHE_SCHEMA = 1

#: Default memo directory (next to wherever the analyzer runs).
DEFAULT_CACHE_DIR = ".analyze_cache"


def file_sha256(path: str) -> str:
    """Streaming sha256 of a file's bytes (the memo key's file half)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class CacheStats:
    """What the memo actually did during one :meth:`aggregate` call."""

    files: int = 0
    hits: int = 0
    misses: int = 0
    records_read: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (folded into reports)."""
        return {
            "files": self.files,
            "hits": self.hits,
            "misses": self.misses,
            "records_read": self.records_read,
        }


@dataclass
class AggregateResult:
    """One memoized campaign aggregation: groups + provenance."""

    query: GroupQuery
    groups: Dict[str, GroupAggregate]
    stats: CacheStats
    sources: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def duplicates(self) -> List[Dict[str, Any]]:
        """Within-file duplicate reports from every ingested source."""
        return [d for src in self.sources for d in src.get("duplicates", [])]

    @property
    def audit_mismatches(self) -> List[Dict[str, Any]]:
        """Audit-fingerprint mismatches from every ingested source."""
        return [m for src in self.sources for m in src.get("audit_mismatches", [])]

    @property
    def torn_lines(self) -> int:
        """Torn JSONL lines repaired across every ingested source."""
        return sum(src.get("torn_lines", 0) for src in self.sources)


class MemoizedAggregator:
    """Aggregate sweep sinks through a ``(file sha256, query)`` disk memo."""

    def __init__(self, cache_dir: Optional[str] = DEFAULT_CACHE_DIR):
        self.cache_dir = cache_dir
        self.stats = CacheStats()

    # -- memo plumbing ----------------------------------------------------

    def _memo_path(self, sha: str, query: GroupQuery) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(
            self.cache_dir, f"{sha[:16]}-{query.query_hash()}.json"
        )

    def _load_memo(self, memo_path: Optional[str], sha: str) -> Optional[Dict[str, Any]]:
        if memo_path is None or not os.path.exists(memo_path):
            return None
        try:
            with open(memo_path) as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None  # a torn memo is a miss, never an error
        if entry.get("schema") != CACHE_SCHEMA or entry.get("sha256") != sha:
            return None
        return entry

    def _store_memo(self, memo_path: Optional[str], entry: Dict[str, Any]) -> None:
        if memo_path is None:
            return
        os.makedirs(os.path.dirname(memo_path) or ".", exist_ok=True)
        # atomic replace: a killed analyzer never leaves a torn memo
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(memo_path) or ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh, sort_keys=True, separators=(",", ":"))
            os.replace(tmp, memo_path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -- per-file partials -------------------------------------------------

    def _build_partial(self, path: str, query: GroupQuery) -> Dict[str, Any]:
        report: IngestReport = ingest_jsonl(path)
        self.stats.records_read += len(report.records)
        groups = aggregate_records(report.records, query)
        meta = report.meta_dict()
        return {
            "schema": CACHE_SCHEMA,
            "query": query.canonical_json(),
            "groups": {k: g.to_dict() for k, g in sorted(groups.items())},
            "run_ids": sorted(r.run_id for r in report.records if r.ok and not r.audit),
            "meta": meta,
        }

    def partial_for(self, path: str, query: GroupQuery) -> Dict[str, Any]:
        """The memoized per-file partial (built and stored on a miss)."""
        sha = file_sha256(path)
        memo_path = self._memo_path(sha, query)
        entry = self._load_memo(memo_path, sha)
        if entry is not None:
            self.stats.hits += 1
            return entry
        self.stats.misses += 1
        entry = self._build_partial(path, query)
        entry["sha256"] = sha
        self._store_memo(memo_path, entry)
        return entry

    # -- the campaign answer -----------------------------------------------

    def aggregate(self, paths: Sequence[str], query: GroupQuery) -> AggregateResult:
        """Memoized group-by over every sink file in ``paths``."""
        merged: Dict[str, GroupAggregate] = {}
        sources: List[Dict[str, Any]] = []
        seen_runs: Dict[str, str] = {}
        for path in paths:
            self.stats.files += 1
            entry = self.partial_for(path, query)
            overlap = sorted(
                run_id for run_id in entry.get("run_ids", []) if run_id in seen_runs
            )
            if overlap:
                head = ", ".join(overlap[:5])
                raise DuplicateRecordError(
                    f"{path}: {len(overlap)} run(s) already ingested from "
                    f"{seen_runs[overlap[0]]} (e.g. {head}) — the same "
                    f"campaign file was passed twice or two sinks overlap"
                )
            for run_id in entry.get("run_ids", []):
                seen_runs[run_id] = path
            merge_groups(
                merged,
                {
                    k: GroupAggregate.from_dict(g)
                    for k, g in entry.get("groups", {}).items()
                },
            )
            sources.append(dict(entry.get("meta", {})))
        return AggregateResult(
            query=query, groups=merged, stats=self.stats, sources=sources
        )
