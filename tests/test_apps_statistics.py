"""Unit tests for the statistical primitives and banded queries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.statistics import (
    HistogramAggregation,
    TopKAggregation,
    banded_labeling,
    quantile_from_histogram,
    query_reading_range,
    rank_of_value,
)
from repro.core import VirtualArchitecture


def readings_for(side):
    """Deterministic readings: value = x + side*y."""
    return lambda c: float(c[0] + side * c[1])


class TestHistogramAggregation:
    def test_in_network_histogram_exact(self):
        side = 8
        va = VirtualArchitecture(side)
        edges = [16.0, 32.0, 48.0]
        agg = HistogramAggregation(readings_for(side), edges)
        result = va.execute(agg)
        counts = result.root_payload
        assert sum(counts) == side * side
        assert counts == [16, 16, 16, 16]  # uniform ramp splits evenly

    def test_bin_edges_validation(self):
        with pytest.raises(ValueError):
            HistogramAggregation(lambda c: 0.0, [2.0, 1.0])
        with pytest.raises(ValueError):
            HistogramAggregation(lambda c: 0.0, [])

    def test_extreme_values_land_in_end_bins(self):
        agg = HistogramAggregation(lambda c: 0.0, [10.0])
        low = agg.local((0, 0))
        assert low == [1, 0]
        agg_hi = HistogramAggregation(lambda c: 99.0, [10.0])
        assert agg_hi.local((0, 0)) == [0, 1]

    def test_message_size_is_bin_count(self):
        agg = HistogramAggregation(lambda c: 0.0, [1.0, 2.0])
        assert agg.size_of([0, 0, 0]) == 3.0


class TestQuantilesAndRanks:
    def test_median_of_uniform_ramp(self):
        side = 8
        va = VirtualArchitecture(side)
        edges = [float(v) for v in range(0, 64, 4)]
        agg = HistogramAggregation(readings_for(side), edges)
        counts = va.execute(agg).root_payload
        median = quantile_from_histogram(counts, edges, 0.5)
        assert abs(median - 32.0) <= 4.0  # within one bin width

    def test_quantile_bounds(self):
        counts = [5, 5]
        edges = [10.0]
        assert quantile_from_histogram(counts, edges, 0.0) == 10.0
        assert quantile_from_histogram(counts, edges, 1.0) == 10.0

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            quantile_from_histogram([1], [0.0], 1.5)
        with pytest.raises(ValueError):
            quantile_from_histogram([0, 0], [0.0], 0.5)

    def test_rank_of_value(self):
        counts = [3, 4, 5]
        edges = [10.0, 20.0]
        assert rank_of_value(counts, edges, 5.0) == 0
        assert rank_of_value(counts, edges, 15.0) == 3
        assert rank_of_value(counts, edges, 25.0) == 7


class TestTopK:
    def test_in_network_topk_exact(self):
        side = 8
        va = VirtualArchitecture(side)
        agg = TopKAggregation(readings_for(side), k=3)
        result = va.execute(agg)
        top = result.root_payload
        assert [v for v, _ in top] == [63.0, 62.0, 61.0]
        assert top[0][1] == (7, 7)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            TopKAggregation(lambda c: 0.0, 0)

    def test_k_larger_than_population(self):
        va = VirtualArchitecture(2)
        agg = TopKAggregation(readings_for(2), k=10)
        top = va.execute(agg).root_payload
        assert len(top) == 4

    def test_ties_break_by_coordinate(self):
        va = VirtualArchitecture(4)
        agg = TopKAggregation(lambda c: 1.0, k=2)
        top = va.execute(agg).root_payload
        assert top == [(1.0, (0, 0)), (1.0, (0, 1))]


class TestBandedLabeling:
    def test_bands_partition_grid(self):
        side = 8
        readings = np.add.outer(np.arange(side), np.arange(side)).astype(float)
        lab = banded_labeling(readings, [4.0, 8.0, 12.0])
        total_area = sum(sum(a) for a in lab.band_areas)
        assert total_area == side * side
        assert lab.num_bands == 4

    def test_diagonal_bands_are_single_regions(self):
        side = 8
        readings = np.add.outer(np.arange(side), np.arange(side)).astype(float)
        lab = banded_labeling(readings, [4.0, 8.0, 12.0])
        # each diagonal band of the x+y ramp is connected
        assert all(c == 1 for c in lab.band_regions)

    def test_band_of(self):
        lab = banded_labeling(np.zeros((2, 2)), [1.0, 2.0])
        assert lab.band_of(0.5) == 0
        assert lab.band_of(1.5) == 1
        assert lab.band_of(99.0) == 2

    def test_edges_validation(self):
        with pytest.raises(ValueError):
            banded_labeling(np.zeros((2, 2)), [2.0, 1.0])


class TestRangeQuery:
    @pytest.fixture
    def labeling(self):
        side = 8
        readings = np.add.outer(np.arange(side), np.arange(side)).astype(float)
        return banded_labeling(readings, [4.0, 8.0, 12.0])

    def test_single_band_query(self, labeling):
        result = query_reading_range(labeling, 5.0, 7.0)
        assert result["bands"] == [1]
        assert result["total_regions"] == 1

    def test_multi_band_query(self, labeling):
        result = query_reading_range(labeling, 2.0, 10.0)
        assert result["bands"] == [0, 1, 2]
        assert result["total_regions"] == 3

    def test_area_accounting(self, labeling):
        everything = query_reading_range(labeling, -1.0, 100.0)
        assert everything["total_area"] == 64

    def test_validation(self, labeling):
        with pytest.raises(ValueError):
            query_reading_range(labeling, 5.0, 1.0)
