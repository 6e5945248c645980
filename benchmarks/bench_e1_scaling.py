"""E1 — Section 4.1's headline claim: the algorithm runs in O(sqrt(N)) steps.

Measures rounds-to-completion (unit messages, free compute — the paper's
"step" measure) across grid sizes and fits the scaling exponent against N;
the closed form is ``2 * (sqrt(N) - 1)``, exponent 0.5.
"""

from __future__ import annotations

import math

import pytest

from repro.core import CountAggregation, VirtualArchitecture
from repro.core.analysis import quadtree_step_count

from paper_helpers import print_table

SIDES = [4, 8, 16, 32, 64]


def measure(side: int) -> float:
    va = VirtualArchitecture(side)
    result = va.execute(CountAggregation(lambda c: True), charge_compute=False)
    return result.latency


@pytest.mark.parametrize("side", SIDES)
def test_round_latency(benchmark, side):
    latency = benchmark(measure, side)
    assert latency == quadtree_step_count(side)


def test_scaling_series_report(benchmark):
    latencies = benchmark(lambda: [measure(s) for s in SIDES])
    rows = []
    for side, lat in zip(SIDES, latencies):
        n = side * side
        rows.append(
            [n, side, f"{lat:.0f}", quadtree_step_count(side), f"{lat / math.sqrt(n):.2f}"]
        )
    print_table(
        "E1: steps vs N (paper: O(sqrt N), closed form 2(sqrt(N)-1))",
        ["N", "sqrt(N)", "measured steps", "closed form", "steps/sqrt(N)"],
        rows,
    )
    # fit exponent of steps ~ N^alpha
    xs = [math.log(s * s) for s in SIDES]
    ys = [math.log(l) for l in latencies]
    n = len(xs)
    slope = (n * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys)) / (
        n * sum(x * x for x in xs) - sum(xs) ** 2
    )
    print(f"fitted exponent alpha = {slope:.3f} (paper claim: 0.5)")
    assert abs(slope - 0.5) < 0.05
