"""E2 — Section 2's design-flow example: divide-and-conquer vs centralized.

The paper's methodology exists so a designer can make exactly this call
from the virtual architecture's cost model.  Regenerates the comparison
table: total latency, total energy, hot-spot load, winner per metric, and
the crossover point.
"""

from __future__ import annotations

import pytest

from repro.apps import compare_designs, random_feature_matrix, run_centralized
from repro.core import VirtualArchitecture
from repro.core.analysis import crossover_side, estimate_centralized, estimate_quadtree

from paper_helpers import print_table

SIDES = [4, 8, 16, 32]


@pytest.mark.parametrize("side", SIDES)
def test_dnc_round(benchmark, side):
    from repro.apps import feature_matrix_aggregation

    feat = random_feature_matrix(side, 0.4, rng=1)
    va = VirtualArchitecture(side)
    agg = feature_matrix_aggregation(feat)
    result = benchmark(va.execute, agg)
    assert len(result.exfiltrated) == 1


@pytest.mark.parametrize("side", SIDES)
def test_centralized_round(benchmark, side):
    feat = random_feature_matrix(side, 0.4, rng=1)
    result = benchmark(run_centralized, feat)
    assert result.regions >= 0


def test_comparison_report(benchmark):
    rows = benchmark(
        lambda: [
            compare_designs(random_feature_matrix(side, 0.4, rng=1))
            for side in SIDES
        ]
    )
    table = [
        [
            r["side"] ** 2,
            f"{r['dnc_latency']:.0f}",
            f"{r['central_latency']:.0f}",
            f"{r['dnc_energy']:.0f}",
            f"{r['central_energy']:.0f}",
            f"{r['energy_ratio']:.1f}x",
            r["energy_winner"],
        ]
        for r in rows
    ]
    print_table(
        "E2: divide-and-conquer vs centralized (measured, data-dependent)",
        ["N", "dnc latency", "central latency", "dnc energy",
         "central energy", "energy ratio", "winner"],
        table,
    )
    # shape: dnc wins energy everywhere, ratio grows with N
    assert all(r["energy_winner"] == "divide-and-conquer" for r in rows)
    ratios = [r["energy_ratio"] for r in rows]
    assert ratios == sorted(ratios)


def test_three_way_report(benchmark):
    """Quad-tree vs centralized vs the flood-fill local baseline."""
    from repro.apps import compare_three_designs

    side = 16
    feat = random_feature_matrix(side, 0.4, rng=1)
    rows = benchmark(compare_three_designs, feat)
    table = [
        [
            name,
            f"{v['latency']:.0f}",
            f"{v['total_energy']:.0f}",
            f"{v['max_node_energy']:.0f}",
            f"{v['messages']:.0f}",
            f"{v['regions']:.0f}",
        ]
        for name, v in rows.items()
    ]
    print_table(
        "E2+: three designs on the same 16x16 field",
        ["design", "latency", "total energy", "hot spot", "messages", "regions"],
        table,
    )
    print(
        "note: flood-fill labels stay distributed (no node knows the count); "
        "quad-tree\nand centralized deliver the full answer to one node — "
        "add a collection round\nto flood-fill for a like-for-like query."
    )
    regions = {v["regions"] for v in rows.values()}
    assert len(regions) == 1  # all three agree
    # among the designs that deliver the answer, quad-tree wins energy
    assert (
        rows["quad-tree"]["total_energy"] < rows["centralized"]["total_energy"]
    )
    # flood-fill's hot spot is the smallest: purely local communication
    assert rows["flood-fill"]["max_node_energy"] == min(
        v["max_node_energy"] for v in rows.values()
    )


def test_analytic_crossover_report(benchmark):
    """The closed-form version of the same decision (unit messages)."""
    def build():
        rows = []
        for exp in range(1, 7):
            side = 2**exp
            q = estimate_quadtree(side)
            c = estimate_centralized(side)
            rows.append(
                [
                    side * side,
                    f"{q.latency_steps:.0f}",
                    f"{c.latency_steps:.0f}",
                    f"{q.total_energy:.0f}",
                    f"{c.total_energy:.0f}",
                    "dnc" if q.latency_steps < c.latency_steps else "central",
                ]
            )
        return rows, crossover_side()

    rows, cross = benchmark(build)
    print_table(
        "E2: analytic estimates (unit messages, serialized sink)",
        ["N", "dnc steps", "central steps", "dnc energy", "central energy",
         "latency winner"],
        rows,
    )
    print(f"latency crossover at side = {cross} (dnc wins at and beyond)")
    assert cross is not None and cross <= 4
