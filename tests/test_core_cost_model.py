"""Unit tests for repro.core.cost_model: cost functions, ledger, metrics."""

from __future__ import annotations

import math

import pytest

from repro.core.cost_model import (
    EnergyLedger,
    FirstOrderRadioCostModel,
    PerformanceReport,
    UniformCostModel,
    energy_balance,
    energy_stddev,
    max_node_energy,
    system_lifetime,
    total_energy,
)


class TestUniformCostModel:
    def test_unit_costs(self):
        cm = UniformCostModel()
        assert cm.tx_energy(1.0) == 1.0
        assert cm.rx_energy(1.0) == 1.0
        assert cm.compute_energy(1.0) == 1.0
        assert cm.tx_latency(1.0) == 1.0
        assert cm.compute_latency(1.0) == 1.0

    def test_scaling(self):
        cm = UniformCostModel(energy_per_unit=2.0, processing_speed=4.0, bandwidth=8.0)
        assert cm.tx_energy(3.0) == 6.0
        assert cm.compute_latency(8.0) == 2.0
        assert cm.tx_latency(8.0) == 1.0

    def test_hop_energy_is_tx_plus_rx(self):
        cm = UniformCostModel()
        assert cm.hop_energy(5.0) == 10.0

    def test_path_costs(self):
        cm = UniformCostModel()
        assert cm.path_energy(2.0, 3) == 12.0
        assert cm.path_latency(2.0, 3) == 6.0
        assert cm.path_energy(2.0, 0) == 0.0

    def test_path_rejects_negative_hops(self):
        cm = UniformCostModel()
        with pytest.raises(ValueError):
            cm.path_energy(1.0, -1)
        with pytest.raises(ValueError):
            cm.path_latency(1.0, -2)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            UniformCostModel(energy_per_unit=0)
        with pytest.raises(ValueError):
            UniformCostModel(bandwidth=-1)


class TestFirstOrderRadioModel:
    def test_tx_exceeds_rx(self):
        cm = FirstOrderRadioCostModel()
        assert cm.tx_energy(1.0) > cm.rx_energy(1.0)

    def test_rx_is_electronics_only(self):
        cm = FirstOrderRadioCostModel(e_elec=10.0, e_amp=1.0, tx_range=3.0)
        assert cm.rx_energy(2.0) == 20.0

    def test_tx_includes_amplifier(self):
        cm = FirstOrderRadioCostModel(
            e_elec=10.0, e_amp=1.0, tx_range=3.0, path_loss_exponent=2.0
        )
        assert cm.tx_energy(1.0) == pytest.approx(19.0)

    def test_path_loss_exponent(self):
        cm2 = FirstOrderRadioCostModel(e_elec=0, e_amp=1, tx_range=2, path_loss_exponent=2)
        cm4 = FirstOrderRadioCostModel(e_elec=0, e_amp=1, tx_range=2, path_loss_exponent=4)
        assert cm4.tx_energy(1.0) == cm2.tx_energy(1.0) ** 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FirstOrderRadioCostModel(e_elec=-1)


class TestEnergyLedger:
    def test_charge_and_query(self):
        ledger = EnergyLedger()
        ledger.charge("a", 2.0, "tx")
        ledger.charge("a", 3.0, "rx")
        ledger.charge("b", 1.0)
        assert ledger.consumed("a") == 5.0
        assert ledger.consumed("b") == 1.0
        assert ledger.consumed("c") == 0.0
        assert ledger.total == 6.0
        assert len(ledger) == 2

    def test_categories(self):
        ledger = EnergyLedger()
        ledger.charge("a", 2.0, "tx")
        ledger.charge("b", 3.0, "tx")
        ledger.charge("a", 1.0, "compute")
        cats = ledger.by_category()
        assert cats["tx"] == 5.0
        assert cats["compute"] == 1.0

    def test_rejects_negative(self):
        ledger = EnergyLedger()
        with pytest.raises(ValueError):
            ledger.charge("a", -1.0)

    def test_merge(self):
        a, b = EnergyLedger(), EnergyLedger()
        a.charge("x", 1.0, "tx")
        b.charge("x", 2.0, "rx")
        b.charge("y", 3.0, "tx")
        a.merge(b)
        assert a.consumed("x") == 3.0
        assert a.consumed("y") == 3.0
        assert a.by_category()["tx"] == 4.0

    def test_per_node_is_copy(self):
        ledger = EnergyLedger()
        ledger.charge("a", 1.0)
        snapshot = ledger.per_node()
        snapshot["a"] = 999.0
        assert ledger.consumed("a") == 1.0


class TestMetrics:
    def _ledger(self, values):
        ledger = EnergyLedger()
        for node, v in values.items():
            ledger.charge(node, v)
        return ledger

    def test_total_energy(self):
        assert total_energy(self._ledger({"a": 1, "b": 2})) == 3.0

    def test_max_node_energy(self):
        assert max_node_energy(self._ledger({"a": 1, "b": 5, "c": 2})) == 5.0
        assert max_node_energy(EnergyLedger()) == 0.0

    def test_energy_balance_perfect(self):
        assert energy_balance(self._ledger({"a": 2, "b": 2})) == 1.0

    def test_energy_balance_skewed(self):
        # mean 2, max 4 -> 0.5
        assert energy_balance(self._ledger({"a": 4, "b": 0})) == pytest.approx(0.5)

    def test_energy_balance_with_population(self):
        ledger = self._ledger({"a": 4})
        # counting two idle nodes: mean 4/3, max 4
        assert energy_balance(ledger, ["a", "b", "c"]) == pytest.approx(1 / 3)

    def test_energy_balance_empty(self):
        assert energy_balance(EnergyLedger()) == 1.0

    def test_energy_stddev(self):
        assert energy_stddev(self._ledger({"a": 2, "b": 2})) == 0.0
        assert energy_stddev(self._ledger({"a": 0, "b": 4})) == pytest.approx(2.0)

    def test_system_lifetime(self):
        ledger = self._ledger({"a": 2, "b": 5})
        assert system_lifetime(ledger, initial_energy=100.0) == pytest.approx(20.0)

    def test_system_lifetime_no_drain(self):
        assert system_lifetime(EnergyLedger(), 10.0) == math.inf

    def test_system_lifetime_rejects_bad_energy(self):
        with pytest.raises(ValueError):
            system_lifetime(EnergyLedger(), 0.0)


class TestPerformanceReport:
    def test_from_ledger(self):
        ledger = EnergyLedger()
        ledger.charge("a", 4.0)
        ledger.charge("b", 2.0)
        report = PerformanceReport.from_ledger(
            ledger, latency=7.0, messages=3, data_units=5.0
        )
        assert report.latency == 7.0
        assert report.total_energy == 6.0
        assert report.max_node_energy == 4.0
        assert report.energy_balance == pytest.approx(0.75)
        assert report.messages == 3

    def test_row_shape(self):
        ledger = EnergyLedger()
        ledger.charge("a", 1.0)
        report = PerformanceReport.from_ledger(ledger, latency=1.0)
        row = report.row()
        assert len(row) == 5
        assert row[0] == 1.0

    def test_extra_fields(self):
        report = PerformanceReport.from_ledger(
            EnergyLedger(), latency=0.0, rounds=3.0
        )
        assert report.extra["rounds"] == 3.0
