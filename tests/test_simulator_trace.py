"""Unit tests for the EventTrace structured log."""

from __future__ import annotations

from repro.simulator.trace import EventTrace, MediumStats, TraceRecord


class TestEventTrace:
    def test_log_and_query(self):
        trace = EventTrace()
        trace.log(1.0, 0, "elect", detail={"value": 3})
        trace.log(2.0, 1, "elect")
        trace.log(3.0, 0, "rt")
        assert len(trace) == 3
        assert len(trace.of_event("elect")) == 2
        assert trace.of_event("elect")[0].detail == {"value": 3}

    def test_last_time(self):
        trace = EventTrace()
        assert trace.last_time() == 0.0
        trace.log(1.0, 0, "a")
        trace.log(5.0, 0, "b")
        assert trace.last_time() == 5.0
        assert trace.last_time("a") == 1.0
        assert trace.last_time("missing") == 0.0

    def test_disabled_trace_records_nothing(self):
        trace = EventTrace(enabled=False)
        trace.log(1.0, 0, "a")
        assert len(trace) == 0

    def test_record_fields(self):
        record = TraceRecord(time=2.5, node=7, event="x", detail="d")
        assert record.time == 2.5
        assert record.node == 7


class TestMediumStatsEdge:
    def test_fresh_stats_zeroed(self):
        stats = MediumStats()
        assert stats.transmissions == 0
        assert stats.tx_of_kind("anything") == 0
        assert stats.summary()["drops"] == 0.0

    def test_drop_accounting(self):
        stats = MediumStats()
        stats.record_drop("rt")
        stats.record_drop("rt")
        stats.record_drop("elect")
        assert stats.drops == 3
        assert stats.by_kind_drop == {"rt": 2, "elect": 1}

    def test_record_rx_many_equals_repeated_record_rx(self):
        single, batch = MediumStats(), MediumStats()
        for stats in (single, batch):
            stats.record_rx("rt", 0.7)
        for _ in range(10):
            single.record_rx("rt", 0.1)
        batch.record_rx_many("rt", 0.1, 10)
        batch.record_rx_many("elect", 0.1, 0)  # nothing arrived: no key
        assert batch.fingerprint() == single.fingerprint()
        assert batch.data_units_received != 0.7 + 0.1 * 10
