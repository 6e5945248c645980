"""Micro-benchmarks of the core data structures and kernels.

Not a paper artifact: Morton indexing, the boundary merge and the
recursive region labeling, timed by pytest-benchmark when it is enabled
and run once as plain checks otherwise.  The rule-engine, executor and
unit-disk checks that used to sit here now live in `tests/`.
"""

from __future__ import annotations

import pytest

from repro.apps import label_regions_quadtree, random_feature_matrix
from repro.apps.boundary import MergeAccumulator, cell_summary
from repro.core import morton_decode, morton_encode


def test_morton_encode_throughput(benchmark):
    coords = [(x, y) for x in range(64) for y in range(64)]

    def run():
        return [morton_encode(c) for c in coords]

    out = benchmark(run)
    assert len(out) == 4096


def test_morton_roundtrip_throughput(benchmark):
    indices = list(range(4096))
    out = benchmark(lambda: [morton_decode(i) for i in indices])
    assert out[5] == (3, 0)


def test_boundary_merge_kernel(benchmark):
    """One 2x2 quadrant merge — the inner loop of the whole case study."""
    children = [cell_summary((x, y), (x + y) % 2 == 0) for x in (0, 1) for y in (0, 1)]

    def run():
        acc = MergeAccumulator((0, 0, 2, 2))
        for c in children:
            acc.add(c)
        return acc.finalize()

    summary = benchmark(run)
    assert summary.total_regions() == 2


@pytest.mark.parametrize("side", [16, 32, 64])
def test_recursive_labeling_scales(benchmark, side):
    feat = random_feature_matrix(side, 0.4, rng=1)
    summary = benchmark(label_regions_quadtree, feat)
    assert summary.total_regions() > 0
