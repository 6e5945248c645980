"""E3 — Section 4.2: group-communication cost proportional to hop distance.

The middleware contract: "the latency and energy of transmitting a data
packet from a level i follower to the level i leader is proportional to the
minimum number of hops separating them in the virtual network graph".
Measures member->leader costs at every hierarchy level and checks exact
proportionality.
"""

from __future__ import annotations

import pytest

from repro.core import HierarchicalGroups, OrientedGrid
from repro.core.analysis import group_communication_cost_table
from repro.core.primitives import PrimitiveEnvironment

from paper_helpers import print_table

SIDE = 16


def test_cost_table(benchmark):
    table = benchmark(group_communication_cost_table, SIDE)
    rows = [
        [level, f"{v['max_hops']:.0f}", f"{v['mean_hops']:.2f}", f"{v['total_hops']:.0f}"]
        for level, v in sorted(table.items())
    ]
    print_table(
        "E3: member->leader hop profile per hierarchy level (16x16)",
        ["level", "max hops", "mean hops", "total hops"],
        rows,
    )
    # max hops = block diameter to the NW corner: 2 (2^k - 1)
    for level, v in table.items():
        assert v["max_hops"] == 2 * (2**level - 1)


def test_measured_cost_proportional_to_hops(benchmark):
    """Send from every follower to its leader; energy / hops is constant."""
    grid = OrientedGrid(8)
    groups = HierarchicalGroups(grid)

    def run():
        env = PrimitiveEnvironment(grid, groups=groups)
        samples = []
        for level in range(1, groups.max_level + 1):
            for member in grid.nodes():
                hops = groups.follower_to_leader_hops(member, level)
                if hops == 0:
                    continue
                before = env.ledger.total
                latency = env.send_to_leader(member, level, payload=None)
                energy = env.ledger.total - before
                samples.append((hops, energy, latency))
        return samples

    samples = benchmark(run)
    for hops, energy, latency in samples:
        assert energy == 2.0 * hops  # tx + rx per hop
        assert latency == 1.0 * hops


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_gather_round_cost(benchmark, level):
    """A full level-gather round via the collective primitive."""
    grid = OrientedGrid(16)
    groups = HierarchicalGroups(grid)

    def run():
        env = PrimitiveEnvironment(grid, groups=groups)
        _, report = env.gather_to_leader((0, 0), level, value_of=lambda m: 1.0)
        return report

    report = benchmark(run)
    assert report.messages == 4**level - 1
