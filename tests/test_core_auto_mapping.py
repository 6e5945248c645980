"""Unit tests for the simulated-annealing mapping tool."""

from __future__ import annotations

import pytest

from repro.core import (
    HierarchicalGroups,
    OrientedGrid,
    build_quadtree,
    check_all_constraints,
    recursive_quadrant_mapping,
)
from repro.core.auto_mapping import (
    anneal_mapping,
    balanced_energy_objective,
    latency_objective,
)
from repro.core.cost_model import energy_balance


@pytest.fixture
def problem4():
    grid = OrientedGrid(4)
    return grid, build_quadtree(grid)


class TestAnnealing:
    def test_final_mapping_feasible(self, problem4):
        grid, tg = problem4
        result = anneal_mapping(tg, grid, iterations=500, rng=0)
        check_all_constraints(result.mapping)

    def test_energy_objective_beats_or_matches_paper(self, problem4):
        # the NW-corner hand mapping is structurally elegant but not
        # energy-optimal: free placement finds centroid positions
        grid, tg = problem4
        paper = recursive_quadrant_mapping(tg, HierarchicalGroups(grid))
        paper_energy, _ = paper.communication_cost()
        result = anneal_mapping(tg, grid, iterations=4000, rng=1)
        assert result.score <= paper_energy

    def test_warm_start_from_paper_mapping(self, problem4):
        grid, tg = problem4
        paper = recursive_quadrant_mapping(tg, HierarchicalGroups(grid))
        result = anneal_mapping(tg, grid, initial=paper, iterations=2000, rng=2)
        paper_energy, _ = paper.communication_cost()
        assert result.initial_score == paper_energy
        assert result.score <= paper_energy

    def test_latency_objective(self, problem4):
        grid, tg = problem4
        result = anneal_mapping(
            tg, grid, objective=latency_objective(), iterations=3000, rng=3
        )
        _, latency = result.mapping.communication_cost()
        assert latency == result.score
        assert latency <= 6.0  # no worse than the paper mapping

    def test_balance_objective_improves_balance(self, problem4):
        grid, tg = problem4
        energy_only = anneal_mapping(tg, grid, iterations=3000, rng=4)
        balanced = anneal_mapping(
            tg,
            grid,
            objective=balanced_energy_objective(balance_weight=5.0),
            iterations=3000,
            rng=4,
        )
        nodes = list(grid.nodes())
        b_energy = energy_balance(balanced.mapping.per_node_energy(), nodes)
        e_energy = energy_balance(energy_only.mapping.per_node_energy(), nodes)
        assert b_energy >= e_energy - 0.05

    def test_deterministic_given_seed(self, problem4):
        grid, tg = problem4
        a = anneal_mapping(tg, grid, iterations=1000, rng=7)
        b = anneal_mapping(tg, grid, iterations=1000, rng=7)
        assert a.score == b.score
        assert a.mapping.placement == b.mapping.placement

    def test_counters(self, problem4):
        grid, tg = problem4
        result = anneal_mapping(tg, grid, iterations=500, rng=8)
        assert 0 < result.accepted_moves <= result.evaluated_moves
        assert 0 <= result.improvement <= 1.0

    def test_iterations_validation(self, problem4):
        grid, tg = problem4
        with pytest.raises(ValueError):
            anneal_mapping(tg, grid, iterations=0)

    def test_balance_weight_validation(self):
        with pytest.raises(ValueError):
            balanced_energy_objective(balance_weight=-1.0)

    def test_leafless_graph_trivial(self):
        # a graph with no interior tasks has nothing to move
        from repro.core.taskgraph import Task, TaskGraph, TaskId

        grid = OrientedGrid(1)
        tg = TaskGraph()
        tg.add_task(Task(TaskId(0, 0)))
        result = anneal_mapping(tg, grid, iterations=10, rng=0)
        assert result.evaluated_moves == 0
        assert result.score == result.initial_score
