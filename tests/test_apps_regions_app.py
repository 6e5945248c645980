"""Unit tests for the region aggregation, the app wrapper, the baseline,
and the distributed-storage queries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (
    DistributedStorage,
    GaussianBlobField,
    GradientField,
    TopographicQueryApp,
    compare_designs,
    count_regions,
    count_regions_exact,
    count_regions_fast,
    enumerate_region_areas,
    feature_area_total,
    feature_matrix_aggregation,
    label_regions_quadtree,
    largest_region,
    random_feature_matrix,
    region_areas,
    run_centralized,
    summary_statistics,
)
from repro.core import VirtualArchitecture


class TestRegionAggregation:
    def test_virtual_execution_matches_oracle(self):
        rng = np.random.default_rng(1)
        va = VirtualArchitecture(8)
        for _ in range(10):
            feat = random_feature_matrix(8, float(rng.uniform(0.1, 0.9)), rng)
            result = va.execute(feature_matrix_aggregation(feat))
            summary = result.root_payload
            assert summary.total_regions() == count_regions(feat)
            assert summary.all_areas() == region_areas(feat)

    def test_matches_pure_recursive_version(self):
        rng = np.random.default_rng(2)
        va = VirtualArchitecture(8)
        feat = random_feature_matrix(8, 0.5, rng)
        distributed = va.execute(feature_matrix_aggregation(feat)).root_payload
        recursive = label_regions_quadtree(feat)
        assert distributed == recursive  # identical canonical summaries

    def test_message_sizes_are_boundary_sizes(self):
        va = VirtualArchitecture(8)
        feat = np.ones((8, 8), dtype=bool)
        result = va.execute(feature_matrix_aggregation(feat), charge_compute=False)
        # data-dependent sizes: more than 1 unit per message on solid input
        assert result.data_units > result.messages

    def test_empty_field_minimal_messages(self):
        va = VirtualArchitecture(8)
        feat = np.zeros((8, 8), dtype=bool)
        result = va.execute(feature_matrix_aggregation(feat), charge_compute=False)
        # all summaries are empty: exactly 1 header unit per message
        assert result.data_units == result.messages

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            feature_matrix_aggregation(np.zeros((4, 8), dtype=bool))

    def test_summary_statistics(self):
        feat = np.zeros((4, 4), dtype=bool)
        feat[1, 1] = True
        stats = summary_statistics(label_regions_quadtree(feat))
        assert stats["regions"] == 1
        assert stats["total_area"] == 1


class TestTopographicQueryApp:
    def test_blob_app_correct(self):
        va = VirtualArchitecture(16)
        field = GaussianBlobField([(0.25, 0.25, 0.1, 1.0), (0.7, 0.7, 0.08, 1.0)])
        app = TopographicQueryApp(va, field, threshold=0.5)
        report = app.run_virtual()
        assert report.correct
        assert report.regions == report.expected_regions == 2

    def test_gradient_app_single_region(self):
        va = VirtualArchitecture(8)
        app = TopographicQueryApp(va, GradientField(0.0, 1.0), threshold=0.5)
        report = app.run_virtual()
        assert report.correct
        assert report.regions == 1

    def test_threshold_above_everything(self):
        va = VirtualArchitecture(8)
        app = TopographicQueryApp(va, GradientField(0.0, 1.0), threshold=5.0)
        report = app.run_virtual()
        assert report.regions == 0 and report.correct

    def test_ascii_map_dimensions(self):
        va = VirtualArchitecture(8)
        app = TopographicQueryApp(va, GradientField(), threshold=0.5)
        lines = app.ascii_feature_map().splitlines()
        assert len(lines) == 8
        assert all(len(line) == 8 for line in lines)

    def test_performance_populated(self):
        va = VirtualArchitecture(8)
        app = TopographicQueryApp(va, GradientField(), threshold=0.5)
        report = app.run_virtual()
        assert report.performance.latency > 0
        assert report.performance.total_energy > 0


class TestCentralizedBaseline:
    def test_correctness_trivial(self):
        feat = random_feature_matrix(8, 0.4, rng=3)
        result = run_centralized(feat)
        assert result.regions == count_regions(feat)
        assert result.areas == region_areas(feat)

    def test_energy_formula(self):
        feat = np.zeros((4, 4), dtype=bool)
        result = run_centralized(feat)
        assert result.hop_units == 48.0  # n^2 (n-1)
        assert result.ledger.total == 96.0

    def test_funnel_hotspot(self):
        # x-first routes funnel every row's traffic through column x=0,
        # so the sink's southern neighbour carries the peak load
        feat = np.zeros((4, 4), dtype=bool)
        result = run_centralized(feat)
        per = result.ledger.per_node()
        assert max(per, key=per.get) == (0, 1)
        assert per[(0, 0)] == 15.0  # the sink receives every reading

    def test_serial_vs_parallel_latency(self):
        feat = np.zeros((8, 8), dtype=bool)
        serial = run_centralized(feat, serial_sink=True)
        parallel = run_centralized(feat, serial_sink=False)
        assert serial.latency > parallel.latency

    def test_compare_designs_row(self):
        feat = random_feature_matrix(8, 0.3, rng=4)
        row = compare_designs(feat)
        assert row["side"] == 8
        assert row["energy_winner"] == "divide-and-conquer"
        assert row["energy_ratio"] > 1.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            run_centralized(np.zeros((4, 8), dtype=bool))


class TestQueries:
    def _storage(self, feat, level=1):
        side = feat.shape[0]
        va = VirtualArchitecture(side)
        result = va.execute(feature_matrix_aggregation(feat), max_level=level)
        return DistributedStorage.from_execution(va.grid, level, result)

    def test_storage_construction(self):
        feat = random_feature_matrix(8, 0.4, rng=5)
        storage = self._storage(feat, level=2)
        assert len(storage.summaries) == 4
        assert storage.leaders() == [(0, 0), (0, 4), (4, 0), (4, 4)]

    def test_exact_count_matches_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            feat = random_feature_matrix(8, float(rng.uniform(0.2, 0.8)), rng)
            storage = self._storage(feat, level=1)
            result = count_regions_exact(storage)
            assert result.value == count_regions(feat)

    def test_fast_count_upper_bounds_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            feat = random_feature_matrix(8, 0.5, rng)
            storage = self._storage(feat, level=1)
            fast = count_regions_fast(storage)
            exact = count_regions_exact(storage)
            assert fast.value >= exact.value

    def test_fast_count_exact_for_isolated_blocks(self):
        # features confined to block interiors never span boundaries
        feat = np.zeros((8, 8), dtype=bool)
        feat[1, 1] = True
        feat[5, 5] = True
        storage = self._storage(feat, level=2)
        assert count_regions_fast(storage).value == 2

    def test_fast_cheaper_than_exact(self):
        feat = np.ones((8, 8), dtype=bool)
        storage = self._storage(feat, level=1)
        fast = count_regions_fast(storage)
        exact = count_regions_exact(storage)
        assert fast.energy < exact.energy

    def test_enumerate_areas(self):
        feat = random_feature_matrix(8, 0.4, rng=8)
        storage = self._storage(feat, level=1)
        result = enumerate_region_areas(storage)
        assert result.value == region_areas(feat)

    def test_largest_region(self):
        feat = np.zeros((8, 8), dtype=bool)
        feat[0:2, 0:3] = True  # area 6
        feat[7, 7] = True
        storage = self._storage(feat, level=1)
        assert largest_region(storage).value == 6

    def test_feature_area_total(self):
        feat = random_feature_matrix(8, 0.5, rng=9)
        storage = self._storage(feat, level=1)
        assert feature_area_total(storage).value == int(feat.sum())

    def test_query_point_affects_cost_not_value(self):
        feat = random_feature_matrix(8, 0.5, rng=10)
        storage = self._storage(feat, level=1)
        at_origin = count_regions_exact(storage, query_point=(0, 0))
        at_corner = count_regions_exact(storage, query_point=(7, 7))
        assert at_origin.value == at_corner.value
        assert at_origin.energy != at_corner.energy

    def test_query_cost_much_less_than_gathering(self):
        # the decoupling claim: querying stored results is cheaper than
        # the boundary-estimation round that produced them
        feat = random_feature_matrix(16, 0.5, rng=11)
        va = VirtualArchitecture(16)
        result = va.execute(feature_matrix_aggregation(feat), max_level=2,
                            charge_compute=False)
        storage = DistributedStorage.from_execution(va.grid, 2, result)
        query = count_regions_fast(storage)
        assert query.energy < result.ledger.total / 2

    def test_from_execution_validates_count(self):
        feat = random_feature_matrix(8, 0.5, rng=12)
        va = VirtualArchitecture(8)
        result = va.execute(feature_matrix_aggregation(feat), max_level=1)
        with pytest.raises(ValueError):
            DistributedStorage.from_execution(va.grid, 2, result)
