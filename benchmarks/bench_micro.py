"""Micro-benchmark of the recursive region labeling.

Not a paper artifact: the quad-tree labeling of a random feature matrix,
timed by pytest-benchmark when it is enabled and run once as a plain
check otherwise.  The Morton-indexing and 2x2-merge checks that used to
sit here are covered by ``tests/test_core_coords.py::TestMorton`` and
``tests/test_apps_boundary.py::TestMergeAccumulator``.
"""

from __future__ import annotations

import pytest

from repro.apps import label_regions_quadtree, random_feature_matrix


@pytest.mark.parametrize("side", [16, 32, 64])
def test_recursive_labeling_scales(benchmark, side):
    feat = random_feature_matrix(side, 0.4, rng=1)
    summary = benchmark(label_regions_quadtree, feat)
    assert summary.total_regions() > 0
