"""Unit tests for the JSONL sink and the determinism audit."""

from __future__ import annotations

from repro.sweep import (
    append_record,
    audit_determinism,
    completed_ok_ids,
    load_records,
)


def record(run_id, status="ok", fingerprint="f0", shard=0, params=None, metrics=None,
           audit=False, spec_hash="h"):
    return {
        "schema": 1, "kind": "run", "run_id": run_id, "spec_hash": spec_hash,
        "name": "t", "workload": "storm", "point": 0, "replicate": 0,
        "audit": audit, "seed": 1, "params": params or {"side": 4},
        "shard": shard, "attempt": 1, "status": status,
        "error": None if status == "ok" else "boom",
        "elapsed_s": 0.1, "metrics": metrics or {"wall_s": 0.1},
        "fingerprint": fingerprint if status == "ok" else None,
    }


class TestSink:
    def test_append_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        for i in range(3):
            append_record(path, record(f"h/p{i:04d}/r0"))
        loaded = load_records(path)
        assert [r["run_id"] for r in loaded] == [f"h/p{i:04d}/r0" for i in range(3)]

    def test_missing_file_is_empty(self, tmp_path):
        assert load_records(str(tmp_path / "nope.jsonl")) == []

    def test_torn_tail_skipped_and_next_append_survives(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        append_record(path, record("h/p0000/r0"))
        with open(path, "a") as fh:
            fh.write('{"run_id": "h/p0001/r0", "status": "o')  # killed mid-write
        assert [r["run_id"] for r in load_records(path)] == ["h/p0000/r0"]
        append_record(path, record("h/p0002/r0"))
        loaded = load_records(path)
        assert [r["run_id"] for r in loaded] == ["h/p0000/r0", "h/p0002/r0"]

    def test_completed_ok_ids_filters_status_and_spec(self):
        records = [
            record("h/p0000/r0"),
            record("h/p0001/r0", status="failed"),
            record("x/p0000/r0", spec_hash="other"),
        ]
        assert completed_ok_ids(records) == {"h/p0000/r0", "x/p0000/r0"}
        assert completed_ok_ids(records, spec_hash="h") == {"h/p0000/r0"}


class TestAudit:
    def test_matching_pairs_pass(self):
        report = audit_determinism([
            record("h/p0000/r0", fingerprint="aa", shard=0),
            record("h/p0000/r0#audit", fingerprint="aa", shard=1, audit=True),
        ])
        assert report.pairs_checked == 1
        assert report.ok

    def test_mismatch_is_reported_with_both_shards(self):
        report = audit_determinism([
            record("h/p0000/r0", fingerprint="aa", shard=0),
            record("h/p0000/r0#audit", fingerprint="bb", shard=1, audit=True),
        ])
        assert not report.ok
        mismatch = report.mismatches[0]
        assert mismatch["run_id"] == "h/p0000/r0"
        assert (mismatch["primary_shard"], mismatch["audit_shard"]) == (0, 1)

    def test_failed_sides_are_not_counted(self):
        report = audit_determinism([
            record("h/p0000/r0", status="failed"),
            record("h/p0000/r0#audit", fingerprint="aa", audit=True),
        ])
        assert report.pairs_checked == 0
        assert report.ok

