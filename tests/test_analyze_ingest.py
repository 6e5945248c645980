"""Ingest and memoization edge cases for `repro.analyze` (DESIGN.md §15).

The failure modes the analysis boundary must surface instead of absorb:

* a torn sink tail (killed writer) is repaired and *counted* all the way
  through the memoized aggregation path, never silently dropped;
* an unknown record schema version is a named error
  (:class:`UnknownSchemaError`), never a guess — a sink full of records
  this code cannot interpret must not summarize as empty;
* resumed/re-run ``(point, replicate)`` duplicates are deduplicated and
  reported, never double-counted; the same run in two different sink
  files is a hard :class:`DuplicateRecordError`;
* the disk memo re-reads **zero** records for an unchanged campaign and
  only the changed file for a grown one (the CacheStats contract).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analyze import (
    DuplicateRecordError,
    GroupQuery,
    MemoizedAggregator,
    UnknownSchemaError,
    ingest_jsonl,
)
from repro.sweep.sink import append_record
from repro.sweep.spec import SweepSpec
from repro.sweep.worker import base_record


def make_spec(name: str = "ingest-test", replicates: int = 3) -> SweepSpec:
    return SweepSpec(
        name=name,
        workload="storm",
        grid={"loss": [0.0, 0.1]},
        replicates=replicates,
        audit_duplicates=1,
    )


def ok_records(spec: SweepSpec, shard: int = 0):
    """Fabricated ok-records in the real worker record shape."""
    records = []
    for run in spec.expand():
        record = base_record(run, shard=shard, attempt=1)
        record.update(
            {
                "status": "ok",
                "error": None,
                "elapsed_s": 0.01,
                "metrics": {
                    "deliveries": 100.0 + (run.seed % 97),
                    "energy": 40.0 + (run.seed % 13),
                },
                "fingerprint": f"fp-{run.primary_id.replace('/', '-')}",
            }
        )
        records.append(record)
    return records


def write_sink(path, records) -> None:
    for record in records:
        append_record(str(path), record)


class TestIngest:
    def test_typed_round_trip(self, tmp_path):
        sink = tmp_path / "a.jsonl"
        spec = make_spec()
        write_sink(sink, ok_records(spec))
        report = ingest_jsonl(str(sink))
        runs = spec.expand()
        assert len(report.records) == len(runs)
        assert report.clean and not report.duplicates
        first = report.ok_records[0]
        assert first.param_dict() == runs[0].params
        assert first.metric_dict()["deliveries"] == pytest.approx(
            100.0 + (runs[0].seed % 97)
        )
        assert first.source == str(sink)

    def test_unknown_schema_rejected_by_name(self, tmp_path):
        sink = tmp_path / "future.jsonl"
        records = ok_records(make_spec())
        write_sink(sink, records[:1])
        append_record(str(sink), {**records[1], "schema": 99})
        with pytest.raises(UnknownSchemaError) as exc:
            ingest_jsonl(str(sink))
        message = str(exc.value)
        assert "schema 99" in message
        assert "future.jsonl:2" in message
        assert records[1]["run_id"] in message

    def test_missing_required_field_is_schema_error(self, tmp_path):
        sink = tmp_path / "broken.jsonl"
        record = dict(ok_records(make_spec())[0])
        del record["seed"]
        append_record(str(sink), record)
        with pytest.raises(UnknownSchemaError, match="malformed"):
            ingest_jsonl(str(sink))

    def test_duplicates_counted_once_and_reported(self, tmp_path):
        sink = tmp_path / "resumed.jsonl"
        records = ok_records(make_spec())
        write_sink(sink, records)
        append_record(str(sink), records[0])  # resumed shard re-emits run 0
        report = ingest_jsonl(str(sink))
        assert len(report.records) == len(records)
        assert report.duplicates == [
            {
                "run_id": records[0]["run_id"],
                "count": 2,
                "fingerprints_agree": True,
            }
        ]

    def test_ok_supersedes_failure_without_duplicate_report(self, tmp_path):
        sink = tmp_path / "retried.jsonl"
        records = ok_records(make_spec())
        failed = dict(records[0])
        failed.update(
            {"status": "failed", "error": "boom", "metrics": {}, "fingerprint": None}
        )
        write_sink(sink, [failed] + records)
        report = ingest_jsonl(str(sink))
        assert not report.duplicates  # failure + retry is the sink working
        kept = [r for r in report.records if r.run_id == records[0]["run_id"]]
        assert len(kept) == 1 and kept[0].ok

    def test_audit_mismatch_surfaced(self, tmp_path):
        sink = tmp_path / "audited.jsonl"
        records = ok_records(make_spec())
        audit = next(r for r in records if r["audit"])
        audit["fingerprint"] = "fp-DIVERGED"
        write_sink(sink, records)
        report = ingest_jsonl(str(sink))
        assert not report.clean
        assert report.audit_mismatches[0]["audit_fingerprint"] == "fp-DIVERGED"


class TestTornTailThroughAnalyze:
    def test_torn_tail_repaired_and_counted_in_aggregate(self, tmp_path):
        sink = tmp_path / "torn.jsonl"
        spec = make_spec()
        write_sink(sink, ok_records(spec))
        with open(sink, "a") as fh:
            fh.write('{"schema": 1, "kind": "run", "run_id": "torn-mid-wri')
        aggregator = MemoizedAggregator(cache_dir=str(tmp_path / "cache"))
        result = aggregator.aggregate([str(sink)], GroupQuery(by=("loss",)))
        assert result.torn_lines == 1
        total_ok = sum(g.runs for g in result.groups.values())
        primaries = [r for r in spec.expand() if not r.audit]
        assert total_ok == len(primaries)

    def test_torn_count_survives_the_memo(self, tmp_path):
        """The warm (fully cached) pass still discloses the repair."""
        sink = tmp_path / "torn.jsonl"
        write_sink(sink, ok_records(make_spec()))
        with open(sink, "a") as fh:
            fh.write('{"half a rec')
        cache = str(tmp_path / "cache")
        query = GroupQuery(by=("loss",))
        cold = MemoizedAggregator(cache_dir=cache).aggregate([str(sink)], query)
        warm = MemoizedAggregator(cache_dir=cache).aggregate([str(sink)], query)
        assert warm.stats.records_read == 0
        assert warm.torn_lines == cold.torn_lines == 1


class TestMemoization:
    def test_unchanged_campaign_reads_zero_records(self, tmp_path):
        sinks, written = [], 0
        for shard in range(2):
            sink = tmp_path / f"shard{shard}.jsonl"
            records = ok_records(make_spec(f"memo-{shard}"), shard=shard)
            write_sink(sink, records)
            sinks.append(str(sink))
            written += len(records)
        cache = str(tmp_path / "cache")
        query = GroupQuery(by=("loss",))
        cold = MemoizedAggregator(cache_dir=cache).aggregate(sinks, query)
        # the cold pass reads every record exactly once
        assert cold.stats.misses == 2 and cold.stats.records_read == written
        warm = MemoizedAggregator(cache_dir=cache).aggregate(sinks, query)
        assert warm.stats.hits == 2
        assert warm.stats.misses == 0
        assert warm.stats.records_read == 0
        assert {k: g.to_dict() for k, g in warm.groups.items()} == {
            k: g.to_dict() for k, g in cold.groups.items()
        }

    def test_grown_campaign_rereads_only_the_new_shard(self, tmp_path):
        first = tmp_path / "shard0.jsonl"
        write_sink(first, ok_records(make_spec("grow-0"), shard=0))
        cache = str(tmp_path / "cache")
        query = GroupQuery(by=("loss",))
        MemoizedAggregator(cache_dir=cache).aggregate([str(first)], query)

        second = tmp_path / "shard1.jsonl"
        new_records = ok_records(make_spec("grow-1"), shard=1)
        write_sink(second, new_records)
        grown = MemoizedAggregator(cache_dir=cache).aggregate(
            [str(first), str(second)], query
        )
        assert grown.stats.hits == 1 and grown.stats.misses == 1
        assert grown.stats.records_read == len(new_records)
        # the memoized group-by over both shards matches a hand computation
        by_loss = {}
        for record in ok_records(make_spec("grow-0")) + new_records:
            if not record["audit"]:
                key = f"loss={record['params']['loss']}"
                by_loss.setdefault(key, []).append(record["metrics"]["deliveries"])
        assert set(grown.groups) == set(by_loss)
        for key, values in by_loss.items():
            acc = grown.groups[key].metrics["deliveries"]
            assert (acc.count, acc.min, acc.max) == (
                len(values), min(values), max(values)
            )
            assert acc.mean == pytest.approx(sum(values) / len(values))

    def test_appending_to_a_file_invalidates_its_memo(self, tmp_path):
        sink = tmp_path / "appended.jsonl"
        spec_a, spec_b = make_spec("app-0"), make_spec("app-1")
        write_sink(sink, ok_records(spec_a))
        cache = str(tmp_path / "cache")
        query = GroupQuery(by=("loss",))
        MemoizedAggregator(cache_dir=cache).aggregate([str(sink)], query)
        write_sink(sink, ok_records(spec_b))  # the sha256 key changed
        regrown = MemoizedAggregator(cache_dir=cache).aggregate([str(sink)], query)
        assert regrown.stats.misses == 1 and regrown.stats.records_read > 0

    def test_cross_file_duplicate_is_a_hard_error(self, tmp_path):
        records = ok_records(make_spec("dup"))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_sink(a, records)
        write_sink(b, records[:2])
        with pytest.raises(DuplicateRecordError, match="already ingested"):
            MemoizedAggregator(cache_dir=str(tmp_path / "cache")).aggregate(
                [str(a), str(b)], GroupQuery()
            )

    def test_torn_memo_entry_is_a_miss_not_an_error(self, tmp_path):
        sink = tmp_path / "a.jsonl"
        write_sink(sink, ok_records(make_spec("torn-memo")))
        cache = tmp_path / "cache"
        query = GroupQuery(by=("loss",))
        MemoizedAggregator(cache_dir=str(cache)).aggregate([str(sink)], query)
        (entry,) = list(cache.iterdir())
        entry.write_text(entry.read_text()[: len(entry.read_text()) // 2])
        recovered = MemoizedAggregator(cache_dir=str(cache)).aggregate(
            [str(sink)], query
        )
        assert recovered.stats.misses == 1 and recovered.stats.records_read > 0
        # and the memo was rewritten whole
        json.loads(entry.read_text())

    def test_no_cache_dir_always_rereads(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # prove no stray .analyze_cache appears
        sink = tmp_path / "a.jsonl"
        records = ok_records(make_spec("nocache"))
        write_sink(sink, records)
        query = GroupQuery()
        MemoizedAggregator(cache_dir=None).aggregate([str(sink)], query)
        again = MemoizedAggregator(cache_dir=None).aggregate([str(sink)], query)
        assert again.stats.records_read == len(records)
        assert not os.path.exists(".analyze_cache")
