"""A3 — system-lifetime simulation (Section 2's lifetime metric).

"Total energy, energy balance, total latency of a set of operations,
system lifetime, etc., are various performance metrics that can be
calculated from the cost model."  E6 computes lifetime from one round's
ledger; this bench *simulates* it: repeated rounds with varying workloads
drain per-node batteries until the first virtual node dies, under the
paper's NW leader policy and the centre-policy ablation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import feature_matrix_aggregation, random_feature_matrix
from repro.core import (
    CenterLeaderPolicy,
    CountAggregation,
    EventDrivenAggregation,
    VirtualArchitecture,
    simulate_event_activations,
)

from paper_helpers import print_table

SIDE = 8
CAPACITY = 1_500.0


def simulate_lifetime(policy, workload, max_rounds=3_000):
    """Rounds until some virtual node's cumulative drain exceeds CAPACITY."""
    va = VirtualArchitecture(SIDE, leader_policy=policy)
    consumed = {}
    for round_no in range(1, max_rounds + 1):
        agg = workload(round_no)
        result = va.execute(agg, charge_compute=False)
        for node, amount in result.ledger.per_node().items():
            consumed[node] = consumed.get(node, 0.0) + amount
            if consumed[node] >= CAPACITY:
                return round_no, consumed
    return max_rounds, consumed


def periodic_workload(round_no):
    return CountAggregation(lambda c: True)


def region_workload_factory(seed):
    rng = np.random.default_rng(seed)

    def workload(round_no):
        return feature_matrix_aggregation(random_feature_matrix(SIDE, 0.4, rng))

    return workload


def tracking_workload_factory(seed):
    rng = np.random.default_rng(seed)

    def workload(round_no):
        active = simulate_event_activations(SIDE, 2, 1.5, rng=rng)
        return EventDrivenAggregation(
            CountAggregation(lambda c: True), active=lambda c: c in active
        )

    return workload


def test_lifetime_periodic_nw(benchmark):
    rounds, _ = benchmark(simulate_lifetime, None, periodic_workload)
    assert rounds > 10


def test_lifetime_periodic_centre(benchmark):
    rounds, _ = benchmark(simulate_lifetime, CenterLeaderPolicy(), periodic_workload)
    assert rounds > 10


def test_lifetime_report(benchmark):
    def run():
        rows = []
        for policy_name, policy in (("north-west (paper)", None),
                                    ("centre", CenterLeaderPolicy())):
            for workload_name, factory in (
                ("periodic count", lambda: periodic_workload),
                ("region labeling", lambda: region_workload_factory(1)),
                ("target tracking", lambda: tracking_workload_factory(1)),
            ):
                rounds, consumed = simulate_lifetime(policy, factory())
                hot = max(consumed, key=consumed.get)
                rows.append(
                    [policy_name, workload_name, rounds, str(hot),
                     f"{consumed[hot]:.0f}"]
                )
        return rows

    rows = benchmark(run)
    print_table(
        f"A3: simulated lifetime (8x8, capacity {CAPACITY:.0f}/node)",
        ["policy", "workload", "rounds to first death", "first casualty",
         "its drain"],
        rows,
    )
    by_key = {(r[0], r[1]): r[2] for r in rows}
    # centre policy outlives NW on the periodic workload (smaller hot spot)
    assert by_key[("centre", "periodic count")] >= by_key[
        ("north-west (paper)", "periodic count")
    ]
    # event-driven tracking outlives always-on periodic operation
    assert by_key[("north-west (paper)", "target tracking")] > by_key[
        ("north-west (paper)", "periodic count")
    ]
