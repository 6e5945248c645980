"""Property-based tests (hypothesis) for the boundary-merge core.

The divide-and-conquer labeling must agree with plain connected-component
labeling on *every* input, under *every* merge order — these are the
paper's implicit correctness claims for the case-study algorithm.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.boundary import MergeAccumulator, cell_summary
from repro.apps.reference import count_regions, region_areas
from repro.apps.regions import feature_matrix_aggregation, label_regions_quadtree
from repro.core import VirtualArchitecture


def feature_matrices(max_exp=4):
    """Random square boolean matrices with power-of-two sides."""

    @st.composite
    def build(draw):
        exp = draw(st.integers(min_value=0, max_value=max_exp))
        side = 2**exp
        bits = draw(
            st.lists(
                st.booleans(), min_size=side * side, max_size=side * side
            )
        )
        return np.array(bits, dtype=bool).reshape(side, side)

    return build()


class TestLabelingProperties:
    @given(feature_matrices())
    @settings(max_examples=120, deadline=None)
    def test_region_count_matches_reference(self, feat):
        summary = label_regions_quadtree(feat)
        assert summary.total_regions() == count_regions(feat)

    @given(feature_matrices())
    @settings(max_examples=120, deadline=None)
    def test_areas_match_reference(self, feat):
        summary = label_regions_quadtree(feat)
        assert summary.all_areas() == region_areas(feat)

    @given(feature_matrices())
    @settings(max_examples=60, deadline=None)
    def test_total_area_is_feature_count(self, feat):
        summary = label_regions_quadtree(feat)
        assert sum(summary.all_areas()) == int(feat.sum())

    @given(feature_matrices())
    @settings(max_examples=60, deadline=None)
    def test_perimeter_cells_are_features_on_ring(self, feat):
        side = feat.shape[0]
        summary = label_regions_quadtree(feat)
        for (x, y), _ in summary.perimeter:
            assert feat[y, x]
            assert x in (0, side - 1) or y in (0, side - 1)

    @given(feature_matrices())
    @settings(max_examples=60, deadline=None)
    def test_summary_size_bounded_by_ring_plus_regions(self, feat):
        side = feat.shape[0]
        summary = label_regions_quadtree(feat)
        ring = 4 * side - 4 if side > 1 else 1
        assert summary.size_units <= ring + summary.closed_count + 1


class TestMergeOrderIndependence:
    @given(feature_matrices(max_exp=2), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_shuffled_quadrant_merge_is_canonical(self, feat, rand):
        side = feat.shape[0]
        if side < 2:
            return
        half = side // 2
        children = []
        for y0 in (0, half):
            for x0 in (0, half):
                acc = MergeAccumulator((x0, y0, half, half))
                for dy in range(half):
                    for dx in range(half):
                        acc.add(
                            cell_summary(
                                (x0 + dx, y0 + dy), bool(feat[y0 + dy, x0 + dx])
                            )
                        )
                children.append(acc.finalize())
        baseline = None
        for _ in range(4):
            rand.shuffle(children)
            acc = MergeAccumulator((0, 0, side, side))
            for c in children:
                acc.add(c)
            result = acc.finalize()
            if baseline is None:
                baseline = result
            assert result == baseline


class TestDistributedEqualsRecursive:
    @given(feature_matrices(max_exp=3))
    @settings(max_examples=40, deadline=None)
    def test_executor_output_equals_pure_recursion(self, feat):
        side = feat.shape[0]
        va = VirtualArchitecture(side)
        result = va.execute(feature_matrix_aggregation(feat))
        assert result.root_payload == label_regions_quadtree(feat)
