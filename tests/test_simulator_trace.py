"""Unit tests for the channel counters (``MediumStats``)."""

from __future__ import annotations

from repro.simulator.trace import MediumStats


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
