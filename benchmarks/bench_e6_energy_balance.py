"""E6 — ablation: leader-placement policy vs energy metrics.

Section 4.2 lets the mapping optimize "new performance metrics such as
total energy and/or energy balance"; the middleware's leader policy is the
knob.  Compares the paper's NW-corner policy against centre and random
placement on total energy, hot-spot load, balance, and system lifetime.
"""

from __future__ import annotations

import pytest

from repro.core import (
    CenterLeaderPolicy,
    CountAggregation,
    NorthWestLeaderPolicy,
    RandomLeaderPolicy,
    VirtualArchitecture,
)
from repro.core.cost_model import system_lifetime

from paper_helpers import print_table

SIDE = 16

POLICIES = {
    "north-west (paper)": None,  # default
    "centre": CenterLeaderPolicy(),
    "random": RandomLeaderPolicy(seed=3),
}


def run_policy(policy):
    va = VirtualArchitecture(SIDE, leader_policy=policy)
    result = va.execute(CountAggregation(lambda c: True), charge_compute=False)
    report = result.report()
    lifetime = system_lifetime(result.ledger, initial_energy=10_000.0)
    return result, report, lifetime


@pytest.mark.parametrize("name", list(POLICIES))
def test_policy_round(benchmark, name):
    result, report, _ = benchmark(run_policy, POLICIES[name])
    assert result.root_payload == SIDE * SIDE  # correctness under any policy


def test_ablation_report(benchmark):
    rows = benchmark(
        lambda: {name: run_policy(p) for name, p in POLICIES.items()}
    )
    table = []
    for name, (result, report, lifetime) in rows.items():
        table.append(
            [
                name,
                f"{report.total_energy:.0f}",
                f"{report.max_node_energy:.0f}",
                f"{report.energy_balance:.3f}",
                f"{lifetime:.0f}",
                f"{report.latency:.0f}",
            ]
        )
    print_table(
        "E6: leader-policy ablation (16x16, unit count reduction)",
        ["policy", "total energy", "hot-spot energy", "balance",
         "lifetime (rounds)", "latency"],
        table,
    )
    nw = rows["north-west (paper)"][1]
    centre = rows["centre"][1]
    # centre placement shortens member->leader paths: lower total energy
    assert centre.total_energy <= nw.total_energy
    # every policy yields the same correct answer; the trade is cost shape
    assert all(r[0].root_payload == SIDE * SIDE for r in rows.values())
