"""Automatic task mapping by simulated annealing (Section 4.2).

*"The virtual topology, cost model, and application graph can be provided
as input to any of the numerous task mapping algorithms that exist in
literature [Bokhari].  Since energy is an important consideration ... the
optimization criteria for the chosen algorithm will have to reflect new
performance metrics such as total energy and/or energy balance.  Also, for
the mapping to be feasible, constraints such as coverage and spatial
correlation will have to be satisfied."*

This module supplies such a tool: a constraint-respecting simulated
annealer over interior-task placements.  Leaf placements are pinned by the
coverage constraint; interior tasks move freely over the grid; candidate
moves are scored by a pluggable objective (total energy, latency, energy
balance, or a weighted blend).  The paper's hand-derived recursive-quadrant
mapping serves as the reference: the annealer should approach (and for the
energy objective, match) its quality — which the tests assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .coords import morton_decode
from .cost_model import CostModel, UniformCostModel, energy_balance
from .mapping import Mapping, check_all_constraints
from .network_model import OrientedGrid
from .taskgraph import TaskGraph, TaskId

#: Objective over a candidate mapping; smaller is better.
Objective = Callable[[Mapping], float]


def total_energy_objective(cost_model: Optional[CostModel] = None) -> Objective:
    """Minimize total communication energy of one round."""
    cm = cost_model or UniformCostModel()

    def objective(mapping: Mapping) -> float:
        energy, _ = mapping.communication_cost(cm)
        return energy

    return objective


def latency_objective(cost_model: Optional[CostModel] = None) -> Objective:
    """Minimize critical-path latency of one round."""
    cm = cost_model or UniformCostModel()

    def objective(mapping: Mapping) -> float:
        _, latency = mapping.communication_cost(cm)
        return latency

    return objective


def balanced_energy_objective(
    cost_model: Optional[CostModel] = None, balance_weight: float = 0.5
) -> Objective:
    """Blend total energy with energy balance (Section 4.2's "total energy
    and/or energy balance").

    Score = ``energy * (1 + w * (1 - balance))``: perfectly balanced
    mappings pay no penalty; hot-spotted ones pay up to ``w`` extra.
    """
    cm = cost_model or UniformCostModel()
    if balance_weight < 0:
        raise ValueError("balance_weight must be non-negative")

    def objective(mapping: Mapping) -> float:
        energy, _ = mapping.communication_cost(cm)
        ledger = mapping.per_node_energy(cm)
        balance = energy_balance(ledger, mapping.grid.nodes())
        return energy * (1.0 + balance_weight * (1.0 - balance))

    return objective


@dataclass
class AnnealingResult:
    """Outcome of one annealing run."""

    mapping: Mapping
    score: float
    initial_score: float
    accepted_moves: int
    evaluated_moves: int

    @property
    def improvement(self) -> float:
        """Relative score reduction vs the starting placement."""
        if self.initial_score == 0:
            return 0.0
        return 1.0 - self.score / self.initial_score


def anneal_mapping(
    graph: TaskGraph,
    grid: OrientedGrid,
    objective: Optional[Objective] = None,
    initial: Optional[Mapping] = None,
    iterations: int = 2000,
    initial_temperature: float = 10.0,
    cooling: float = 0.995,
    rng: "np.random.Generator | int | None" = None,
    enforce_constraints: bool = True,
) -> AnnealingResult:
    """Search interior-task placements by simulated annealing.

    Parameters
    ----------
    graph, grid:
        The application graph and virtual topology.
    objective:
        Score to minimize; defaults to total energy.
    initial:
        Starting mapping; defaults to leaves-on-their-cells with every
        interior task at the grid origin.
    iterations, initial_temperature, cooling:
        Annealing schedule (geometric cooling).
    enforce_constraints:
        Validate coverage + spatial correlation on the final mapping
        (spatial correlation is invariant under interior moves, so this
        can only fail if the *initial* mapping was infeasible).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    score_of = objective or total_energy_objective()
    r = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    if initial is None:
        initial = Mapping(graph=graph, grid=grid)
        for task in graph.tasks():
            if graph.predecessors(task.tid):
                initial.place(task.tid, (0, 0))
            else:
                initial.place(task.tid, morton_decode(task.tid.index))
    current = Mapping(graph=graph, grid=grid, placement=dict(initial.placement))

    movable: List[TaskId] = [
        t.tid for t in graph.tasks() if graph.predecessors(t.tid)
    ]
    if not movable:
        score = score_of(current)
        return AnnealingResult(current, score, score, 0, 0)

    nodes = list(grid.nodes())
    current_score = score_of(current)
    initial_score = current_score
    best = Mapping(graph=graph, grid=grid, placement=dict(current.placement))
    best_score = current_score
    temperature = initial_temperature
    accepted = 0
    evaluated = 0

    for _ in range(iterations):
        tid = movable[int(r.integers(len(movable)))]
        old = current.placement[tid]
        candidate = nodes[int(r.integers(len(nodes)))]
        if candidate == old:
            continue
        current.placement[tid] = candidate
        new_score = score_of(current)
        evaluated += 1
        delta = new_score - current_score
        if delta <= 0 or r.random() < math.exp(-delta / max(temperature, 1e-9)):
            current_score = new_score
            accepted += 1
            if new_score < best_score:
                best_score = new_score
                best = Mapping(
                    graph=graph, grid=grid, placement=dict(current.placement)
                )
        else:
            current.placement[tid] = old
        temperature *= cooling

    if enforce_constraints:
        check_all_constraints(best)
    return AnnealingResult(
        mapping=best,
        score=best_score,
        initial_score=initial_score,
        accepted_moves=accepted,
        evaluated_moves=evaluated,
    )
