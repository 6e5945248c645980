"""Scale tests: the design-time stack at large N.

The paper targets "large-scale ... dense" networks; these tests pin that
the design-time machinery handles five-digit node counts in seconds and
that its exact invariants survive the scale-up.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    count_regions,
    feature_matrix_aggregation,
    label_regions_quadtree,
    random_feature_matrix,
)
from repro.core import (
    CountAggregation,
    HierarchicalGroups,
    OrientedGrid,
    execute_round,
    execute_round_sync,
    synthesize_quadtree_program,
)
from repro.core.analysis import estimate_quadtree, quadtree_step_count


class TestLargeGrid:
    def test_128x128_reduction(self):
        # 16384 virtual nodes, 21845 programs, ~21k messages
        side = 128
        groups = HierarchicalGroups(OrientedGrid(side))
        spec = synthesize_quadtree_program(groups, CountAggregation(lambda c: True))
        result = execute_round(spec, charge_compute=False)
        assert result.root_payload == side * side
        assert result.latency == quadtree_step_count(side)
        est = estimate_quadtree(side)
        assert result.ledger.total == pytest.approx(est.total_energy)
        assert result.messages == est.messages

    def test_64x64_region_labeling_exact(self):
        feat = random_feature_matrix(64, 0.45, rng=9)
        result = execute_round(
            synthesize_quadtree_program(
                HierarchicalGroups(OrientedGrid(64)),
                feature_matrix_aggregation(feat),
            )
        )
        assert result.root_payload.total_regions() == count_regions(feat)

    def test_128x128_recursive_labeling(self):
        feat = random_feature_matrix(128, 0.4, rng=10)
        summary = label_regions_quadtree(feat)
        assert summary.total_regions() == count_regions(feat)


class TestSyncAsyncEquivalence:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_same_summary_any_field(self, seed):
        feat = random_feature_matrix(8, 0.5, rng=seed)
        agg = feature_matrix_aggregation(feat)
        groups = HierarchicalGroups(OrientedGrid(8))
        sync = execute_round_sync(synthesize_quadtree_program(groups, agg))
        async_ = execute_round(synthesize_quadtree_program(groups, agg))
        assert sync.root_payload == async_.root_payload
        assert sync.messages == async_.messages
        assert sync.ledger.total == pytest.approx(async_.ledger.total)
