"""E7 — Section 3.1: topographic queries over distributed storage.

"Processing and responding to queries could be in most cases decoupled
from the actual data gathering and boundary estimation process."
Measures the cost of count/enumerate/area queries against level-L storage
and compares with the gathering round that produced the storage.
"""

from __future__ import annotations

import pytest

from repro.apps import (
    DistributedStorage,
    count_regions_exact,
    count_regions_fast,
    enumerate_region_areas,
    feature_area_total,
    feature_matrix_aggregation,
    largest_region,
    random_feature_matrix,
)
from repro.core import VirtualArchitecture

from paper_helpers import print_table

SIDE = 16
LEVEL = 2


def build_storage():
    feat = random_feature_matrix(SIDE, 0.35, rng=5)
    va = VirtualArchitecture(SIDE)
    result = va.execute(
        feature_matrix_aggregation(feat), max_level=LEVEL, charge_compute=False
    )
    storage = DistributedStorage.from_execution(va.grid, LEVEL, result)
    return feat, storage, result


@pytest.fixture(scope="module")
def storage_fixture():
    return build_storage()


def test_gathering_round(benchmark):
    benchmark(build_storage)


def test_query_count_fast(benchmark, storage_fixture):
    _, storage, _ = storage_fixture
    result = benchmark(count_regions_fast, storage)
    assert result.value >= 1


def test_query_count_exact(benchmark, storage_fixture):
    _, storage, _ = storage_fixture
    result = benchmark(count_regions_exact, storage)
    assert result.value >= 1


def test_query_enumerate(benchmark, storage_fixture):
    _, storage, _ = storage_fixture
    result = benchmark(enumerate_region_areas, storage)
    assert len(result.value) >= 1


def test_query_report(benchmark, storage_fixture):
    feat, storage, gather = storage_fixture

    def run():
        return {
            "count (sum of local counts)": count_regions_fast(storage),
            "count (merge summaries)": count_regions_exact(storage),
            "enumerate areas": enumerate_region_areas(storage),
            "largest region": largest_region(storage),
            "total feature area": feature_area_total(storage),
        }

    results = benchmark(run)
    from repro.apps import count_regions

    truth = count_regions(feat)
    table = []
    for name, q in results.items():
        value = q.value if not isinstance(q.value, list) else f"{len(q.value)} regions"
        table.append(
            [name, value, f"{q.energy:.0f}", f"{q.latency:.0f}", q.messages]
        )
    table.append(
        ["(gathering round)", "-", f"{gather.ledger.total:.0f}",
         f"{gather.latency:.0f}", gather.messages]
    )
    print_table(
        f"E7: queries over level-{LEVEL} storage (16x16, truth={truth} regions)",
        ["query", "answer", "energy", "latency", "messages"],
        table,
    )
    assert results["count (merge summaries)"].value == truth
    assert results["count (sum of local counts)"].value >= truth
    # decoupling: scalar queries (one unit per storage leader) are far
    # cheaper than the gathering round; full-summary queries pay for the
    # boundary data they ship and may approach it.
    for name in ("count (sum of local counts)", "total feature area"):
        assert results[name].energy < gather.ledger.total / 2
