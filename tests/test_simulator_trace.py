"""Unit tests for the channel counters (``MediumStats``)."""

from __future__ import annotations

from repro.core.cost_model import EnergyLedger
from repro.simulator.trace import MediumLedger, MediumStats


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

    def test_views_list_only_nonzero_counts(self):
        stats = MediumStats()
        assert stats.tx_of_kind("rt") == 0
        assert stats.records == {}, "a read must not make a record"
        stats.record_drop("rt", 0)  # a record with every count zero
        stats.records["elect"].tx += 1
        assert stats.by_kind_tx == {"elect": 1}
        assert stats.by_kind_rx == {} and stats.by_kind_drop == {}
        assert stats.fingerprint()[5:] == ((("elect", 1),), (), ())

    def test_medium_ledger_categories_are_the_records_energy(self):
        stats = MediumStats()
        ledger = MediumLedger(stats.records)
        record = stats.records["rt"]
        record.tx, record.tx_energy = 2, 1.5
        stats.records["quiet"].drop = 1  # never sent or received: no category
        ledger.charge(4, 0.25, "compute")
        assert ledger.by_category() == {"compute": 0.25, "tx:rt": 1.5}
        merged = EnergyLedger()
        merged.merge(ledger)
        merged.merge(ledger)
        assert merged.fingerprint()[1] == (("compute", 0.5), ("tx:rt", 3.0))
        ledger.merge(merged)  # merged-in totals add to the records' own
        assert ledger.by_category() == {"compute": 0.75, "tx:rt": 4.5}
