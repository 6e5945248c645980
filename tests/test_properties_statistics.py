"""Property-based tests for the statistical aggregations.

The in-network histogram/top-k reductions must agree with their plain
NumPy counterparts on every input — the "summing, sorting, ranking"
primitives are exact, not approximate.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.statistics import (
    HistogramAggregation,
    TopKAggregation,
    banded_labeling,
    quantile_from_histogram,
    rank_of_value,
)
from repro.core import VirtualArchitecture


@st.composite
def readings_grids(draw, max_exp=3):
    exp = draw(st.integers(min_value=1, max_value=max_exp))
    side = 2**exp
    values = draw(
        st.lists(
            st.floats(
                min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
            ),
            min_size=side * side,
            max_size=side * side,
        )
    )
    return side, np.array(values).reshape(side, side)


@st.composite
def edge_lists(draw):
    edges = draw(
        st.lists(
            st.floats(
                min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
            ),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    return sorted(edges)


class TestHistogramProperties:
    @given(readings_grids(), edge_lists())
    @settings(max_examples=50, deadline=None)
    def test_matches_numpy_histogram(self, grid_data, edges):
        side, readings = grid_data
        va = VirtualArchitecture(side)
        agg = HistogramAggregation(lambda c: readings[c[1], c[0]], edges)
        counts = va.execute(agg).root_payload
        # bisect_right boundary convention == np.digitize(right=False):
        # a reading equal to an edge lands in the upper bin
        expected = np.bincount(
            np.digitize(readings.ravel(), edges, right=False),
            minlength=len(edges) + 1,
        )
        assert counts == list(expected)

    @given(readings_grids(), edge_lists())
    @settings(max_examples=50, deadline=None)
    def test_total_count_preserved(self, grid_data, edges):
        side, readings = grid_data
        va = VirtualArchitecture(side)
        agg = HistogramAggregation(lambda c: readings[c[1], c[0]], edges)
        counts = va.execute(agg).root_payload
        assert sum(counts) == side * side

    @given(readings_grids(), edge_lists(), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_quantile_within_edges(self, grid_data, edges, q):
        side, readings = grid_data
        va = VirtualArchitecture(side)
        agg = HistogramAggregation(lambda c: readings[c[1], c[0]], edges)
        counts = va.execute(agg).root_payload
        value = quantile_from_histogram(counts, edges, q)
        assert edges[0] <= value <= edges[-1]

    @given(readings_grids(), edge_lists())
    @settings(max_examples=30, deadline=None)
    def test_rank_monotone(self, grid_data, edges):
        side, readings = grid_data
        va = VirtualArchitecture(side)
        agg = HistogramAggregation(lambda c: readings[c[1], c[0]], edges)
        counts = va.execute(agg).root_payload
        probes = sorted([edges[0] - 1] + list(edges) + [edges[-1] + 1])
        ranks = [rank_of_value(counts, edges, p) for p in probes]
        assert ranks == sorted(ranks)


class TestTopKProperties:
    @given(readings_grids(), st.integers(min_value=1, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_matches_sorted_reference(self, grid_data, k):
        side, readings = grid_data
        va = VirtualArchitecture(side)
        agg = TopKAggregation(lambda c: readings[c[1], c[0]], k)
        top = va.execute(agg).root_payload
        all_pairs = sorted(
            (
                (float(readings[y, x]), (x, y))
                for x in range(side)
                for y in range(side)
            ),
            key=lambda rc: (-rc[0], rc[1]),
        )
        assert top == all_pairs[:k]


class TestBandedProperties:
    @given(readings_grids(), edge_lists())
    @settings(max_examples=50, deadline=None)
    def test_bands_partition(self, grid_data, edges):
        side, readings = grid_data
        lab = banded_labeling(readings, edges)
        total = sum(sum(a) for a in lab.band_areas)
        assert total == side * side
        # per-cell: exactly one band claims each cell
        stacked = np.stack(lab.band_feature)
        assert np.all(stacked.sum(axis=0) == 1)
