"""A1 — model ablations: async vs TDMA execution; event-driven activation.

Section 2 says the network model "could support synchronous algorithms
(e.g., TDMA), purely asynchronous message-passing paradigms, or a
combination"; Section 4.1 sketches the probabilistic-activation extension
for event-driven applications.  This bench quantifies both:

* the asynchronous executor vs the slot-synchronous one on identical
  programs (identical answers and energy; latency quantization);
* expected vs measured cost under Bernoulli leaf activation, and the
  target-tracking vicinity model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CountAggregation,
    EventDrivenAggregation,
    HierarchicalGroups,
    OrientedGrid,
    execute_round,
    execute_round_sync,
    expected_quadtree_cost,
    simulate_event_activations,
    synthesize_quadtree_program,
)

from paper_helpers import print_table

SIDE = 16


def make_spec(agg=None):
    groups = HierarchicalGroups(OrientedGrid(SIDE))
    return synthesize_quadtree_program(
        groups, agg or CountAggregation(lambda c: True)
    )


def test_async_round(benchmark):
    result = benchmark(lambda: execute_round(make_spec()))
    assert result.root_payload == SIDE * SIDE


def test_sync_round(benchmark):
    result = benchmark(lambda: execute_round_sync(make_spec()))
    assert result.root_payload == SIDE * SIDE


def test_model_equivalence_report(benchmark):
    def run():
        async_ = execute_round(make_spec())
        sync = execute_round_sync(make_spec())
        return async_, sync

    async_, sync = benchmark(run)
    print_table(
        "A1: asynchronous vs TDMA execution (16x16 unit reduction)",
        ["model", "result", "latency", "energy", "messages"],
        [
            ["asynchronous", async_.root_payload, f"{async_.latency:.1f}",
             f"{async_.ledger.total:.0f}", async_.messages],
            ["TDMA slots", sync.root_payload, f"{sync.latency:.1f}",
             f"{sync.ledger.total:.0f}", sync.messages],
        ],
    )
    assert async_.root_payload == sync.root_payload
    assert async_.ledger.total == pytest.approx(sync.ledger.total)
    assert sync.messages == async_.messages


@pytest.mark.parametrize("p", [0.05, 0.2, 0.5])
def test_event_driven_round(benchmark, p):
    rng = np.random.default_rng(11)
    active = {
        (x, y) for x in range(SIDE) for y in range(SIDE) if rng.random() < p
    }
    agg = EventDrivenAggregation(
        CountAggregation(lambda c: True), active=lambda c: c in active
    )
    result = benchmark(lambda: execute_round(make_spec(agg), charge_compute=False))
    assert result.root_payload == (len(active) if active else None)


def test_activation_sweep_report(benchmark):
    def run():
        rows = []
        rng = np.random.default_rng(11)
        for p in (0.02, 0.1, 0.3, 1.0):
            active = {
                (x, y)
                for x in range(SIDE)
                for y in range(SIDE)
                if rng.random() < p
            }
            agg = EventDrivenAggregation(
                CountAggregation(lambda c: True), active=lambda c: c in active
            )
            measured = execute_round(make_spec(agg), charge_compute=False)
            expected = expected_quadtree_cost(SIDE, p)
            rows.append([p, len(active), f"{measured.ledger.total:.0f}",
                         f"{expected.expected_energy:.0f}"])
        return rows

    rows = benchmark(run)
    print_table(
        "A1: event-driven activation sweep (16x16)",
        ["p", "active leaves", "measured energy", "expected energy"],
        rows,
    )
    energies = [float(r[2]) for r in rows]
    assert energies == sorted(energies)  # cost grows with activation


def test_tracking_scenario_report(benchmark):
    def run():
        rows = []
        for n_targets in (1, 2, 4):
            active = simulate_event_activations(
                SIDE, n_targets, vicinity_radius=2.0, rng=5
            )
            agg = EventDrivenAggregation(
                CountAggregation(lambda c: True), active=lambda c: c in active
            )
            result = execute_round(make_spec(agg), charge_compute=False)
            rows.append(
                [n_targets, len(active), result.root_payload,
                 f"{result.ledger.total:.0f}"]
            )
        return rows

    rows = benchmark(run)
    print_table(
        "A1: target-tracking activation (vicinity radius 2 cells)",
        ["targets", "active leaves", "in-network count", "energy"],
        rows,
    )
    for row in rows:
        assert row[2] == row[1]  # the reduction counts exactly the vicinity
