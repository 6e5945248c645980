"""Ingest and multi-sink aggregation edge cases for `repro.analyze` (DESIGN.md §15).

The failure modes the analysis boundary must surface instead of absorb:

* a torn sink tail (killed writer) is repaired and *counted* all the way
  through the aggregation path, never silently dropped;
* an unknown record schema version is a named error
  (:class:`UnknownSchemaError`) naming the file and its own line number,
  never a guess — a sink full of records this code cannot interpret must
  not summarize as empty, and neither may a sink path that does not exist;
* resumed/re-run ``(point, replicate)`` duplicates are deduplicated and
  reported, never double-counted; the same run in two different sink
  files is a hard :class:`DuplicateRecordError`;
* a campaign spread over several sinks aggregates to the same groups as
  a hand computation over all of their records.
"""

from __future__ import annotations

import pytest

from repro.analyze import (
    AnalyzeError,
    DuplicateRecordError,
    GroupQuery,
    UnknownSchemaError,
    aggregate_sinks,
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

    def test_unknown_schema_names_the_file_line_past_torn_and_blank_lines(
        self, tmp_path
    ):
        """A resumed sink: record, torn line, resumed record, blank, bad."""
        sink = tmp_path / "resumed.jsonl"
        records = ok_records(make_spec())
        write_sink(sink, records[:1])
        with open(sink, "a") as fh:
            fh.write('{"schema": 1, "run_id": "torn-mid-wri')
        write_sink(sink, records[1:2])  # lands on line 3, after the torn line
        with open(sink, "a") as fh:
            fh.write("\n")
        append_record(str(sink), {**records[2], "schema": 99})
        with pytest.raises(UnknownSchemaError) as exc:
            ingest_jsonl(str(sink))
        assert "resumed.jsonl:5:" in str(exc.value)

    def test_missing_sink_is_an_error_not_an_empty_campaign(self, tmp_path):
        missing = tmp_path / "nope.jsonl"
        with pytest.raises(AnalyzeError, match="nope.jsonl"):
            ingest_jsonl(str(missing))

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
        result = aggregate_sinks([str(sink)], GroupQuery(by=("loss",)))
        assert result.torn_lines == 1
        total_ok = sum(g.runs for g in result.groups.values())
        primaries = [r for r in spec.expand() if not r.audit]
        assert total_ok == len(primaries)


class TestMemoization:
    """Aggregation over a campaign spread across several sink files.

    The class and test names are kept from the removed disk memo so that
    the test ids stay stable; nothing here is memoized.
    """

    def test_grown_campaign_rereads_only_the_new_shard(self, tmp_path):
        """Two sinks fold to the same groups as a hand computation."""
        first = tmp_path / "shard0.jsonl"
        old_records = ok_records(make_spec("grow-0"), shard=0)
        write_sink(first, old_records)
        second = tmp_path / "shard1.jsonl"
        new_records = ok_records(make_spec("grow-1"), shard=1)
        write_sink(second, new_records)
        grown = aggregate_sinks([str(first), str(second)], GroupQuery(by=("loss",)))
        assert len(grown.sources) == 2
        by_loss = {}
        for record in old_records + new_records:
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

    def test_cross_file_duplicate_is_a_hard_error(self, tmp_path):
        records = ok_records(make_spec("dup"))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_sink(a, records)
        write_sink(b, records[:2])
        with pytest.raises(DuplicateRecordError, match="already ingested"):
            aggregate_sinks([str(a), str(b)], GroupQuery())
