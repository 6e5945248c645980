"""Task-to-node mapping and role assignment (Section 4.2, Figure 3).

The virtual topology, cost model, and application graph feed a mapping
stage that assigns every task to a virtual-grid node subject to the two
design-time constraints of Section 4.1:

* **Coverage** — each leaf (sampling) task maps to a *distinct* grid node,
  and there are exactly as many leaves as grid nodes, so every point of
  coverage is sampled.
* **Spatial correlation** — all children of a given task represent a single
  contiguous geographic extent, so boundary information merged at the
  parent achieves maximum compression.

:func:`recursive_quadrant_mapping` reproduces the paper's mapping (Figure
3): leaf tasks map to their own grid cell and each interior task maps to
the leader of its block under the group-formation middleware — with the
NW-leader policy the root lands on location 0 and the level-1 tasks on
locations 0, 4, 8, 12 exactly as the paper states.

Alternative mappers (center-leader, random-leader, sink-rooted) support the
energy-balance ablation (experiment E6) and the centralized baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .coords import GridCoord, morton_decode
from .cost_model import CostModel, EnergyLedger, UniformCostModel
from .groups import HierarchicalGroups
from .network_model import OrientedGrid
from .taskgraph import TaskGraph, TaskId


@dataclass
class Mapping:
    """An assignment of every task of a :class:`TaskGraph` to a grid node.

    Attributes
    ----------
    graph:
        The mapped task graph.
    grid:
        The virtual topology the tasks are placed on.
    placement:
        Task id -> grid coordinate.
    """

    graph: TaskGraph
    grid: OrientedGrid
    placement: Dict[TaskId, GridCoord] = field(default_factory=dict)

    def place(self, tid: TaskId, coord: GridCoord) -> None:
        """Assign ``tid`` to ``coord`` (validates grid membership)."""
        if tid not in self.graph:
            raise KeyError(f"unknown task {tid!r}")
        self.grid.validate_member(coord)
        self.placement[tid] = coord

    def location(self, tid: TaskId) -> GridCoord:
        """Where ``tid`` was placed; raises ``KeyError`` if unmapped."""
        return self.placement[tid]

    def is_complete(self) -> bool:
        """True iff every task has a location."""
        return all(t.tid in self.placement for t in self.graph.tasks())

    def tasks_at(self, coord: GridCoord) -> List[TaskId]:
        """All tasks co-located at ``coord``."""
        return [tid for tid, c in self.placement.items() if c == coord]

    # -- cost (Section 4.2's evaluation of a mapping) -------------------------

    def communication_cost(
        self, cost_model: Optional[CostModel] = None
    ) -> Tuple[float, float]:
        """(total energy, critical-path latency) of one execution round.

        Every edge ``src -> dst`` moves its annotated ``data_units`` along
        a shortest grid path between the mapped locations; energy is
        charged per hop (tx + rx), latency accumulates along the task
        graph's critical path assuming level-parallel execution.
        """
        cm = cost_model or UniformCostModel()
        total_energy = 0.0
        finish: Dict[TaskId, float] = {}
        for task in self.graph.topological_order():
            ready = 0.0
            for pred in self.graph.predecessors(task.tid):
                units = self.graph.edge_units(pred, task.tid)
                hops = self.grid.hop_distance(
                    self.placement[pred], self.placement[task.tid]
                )
                total_energy += cm.path_energy(units, hops)
                arrival = finish[pred] + cm.path_latency(units, hops)
                ready = max(ready, arrival)
            compute = task.annotations.get("operations", 0.0)
            total_energy += cm.compute_energy(compute)
            finish[task.tid] = ready + cm.compute_latency(compute)
        latency = max(finish.values()) if finish else 0.0
        return total_energy, latency

    def per_node_energy(
        self, cost_model: Optional[CostModel] = None
    ) -> EnergyLedger:
        """Ledger of energy charged to every grid node for one round.

        Relay nodes along each XY route are charged tx+rx for forwarding,
        endpoints are charged their half, matching the uniform cost model's
        accounting (every unit transmitted and received costs one unit at
        the node doing it).
        """
        cm = cost_model or UniformCostModel()
        ledger = EnergyLedger()
        for src, dst, units in self.graph.edges():
            path = self.grid.route(self.placement[src], self.placement[dst])
            cm.charge_path(ledger, path, units)
        for task in self.graph.tasks():
            ops = task.annotations.get("operations", 0.0)
            if ops:
                ledger.charge(
                    self.placement[task.tid], cm.compute_energy(ops), "compute"
                )
        return ledger


# ---------------------------------------------------------------------------
# Constraint checkers (Section 4.1)
# ---------------------------------------------------------------------------


class ConstraintViolation(ValueError):
    """Raised when a mapping violates a design-time constraint."""


def check_coverage(mapping: Mapping) -> None:
    """Enforce the coverage constraint.

    Each leaf task must map to a *distinct* node of the virtual topology
    and the leaf count must equal the node count, so every point of
    coverage is sampled by exactly one task.
    """
    leaves = mapping.graph.leaves()
    n = mapping.grid.num_nodes
    if len(leaves) != n:
        raise ConstraintViolation(
            f"coverage: {len(leaves)} leaf tasks for {n} grid nodes"
        )
    seen: Dict[GridCoord, TaskId] = {}
    for leaf in leaves:
        coord = mapping.placement.get(leaf.tid)
        if coord is None:
            raise ConstraintViolation(f"coverage: leaf {leaf.tid!r} unmapped")
        if coord in seen:
            raise ConstraintViolation(
                f"coverage: leaves {seen[coord]!r} and {leaf.tid!r} "
                f"both map to {coord!r}"
            )
        seen[coord] = leaf.tid


def check_spatial_correlation(mapping: Mapping) -> None:
    """Enforce the spatial-correlation constraint.

    For every task, the union of the geographic extents overseen by its
    children must be a single contiguous (axis-aligned rectangular) extent.
    Extents are derived from the mapped positions of the leaf tasks beneath
    each child.
    """
    graph = mapping.graph
    footprint: Dict[TaskId, Set[GridCoord]] = {}
    for task in graph.topological_order():
        preds = graph.predecessors(task.tid)
        if not preds:
            footprint[task.tid] = {mapping.placement[task.tid]}
        else:
            cells: Set[GridCoord] = set()
            for p in preds:
                cells |= footprint[p]
            footprint[task.tid] = cells
            if not _is_full_rectangle(cells):
                raise ConstraintViolation(
                    f"spatial correlation: children of {task.tid!r} cover a "
                    f"non-contiguous extent of {len(cells)} cells"
                )


def _is_full_rectangle(cells: Set[GridCoord]) -> bool:
    """True iff ``cells`` is exactly an axis-aligned rectangle of cells."""
    if not cells:
        return False
    xs = [c[0] for c in cells]
    ys = [c[1] for c in cells]
    w = max(xs) - min(xs) + 1
    h = max(ys) - min(ys) + 1
    return w * h == len(cells)


def check_all_constraints(mapping: Mapping) -> None:
    """Run every design-time constraint check; raise on the first failure."""
    if not mapping.is_complete():
        raise ConstraintViolation("mapping is incomplete")
    check_coverage(mapping)
    check_spatial_correlation(mapping)


# ---------------------------------------------------------------------------
# Mappers
# ---------------------------------------------------------------------------


def recursive_quadrant_mapping(
    graph: TaskGraph, groups: HierarchicalGroups
) -> Mapping:
    """The paper's mapping (Figure 3) via the group-formation middleware.

    Leaf task with Morton index *m* maps to the grid cell at Morton
    position *m*; the interior task overseeing a block maps to the
    middleware's leader for that block at the task's level.  With the
    default NW-leader policy this reproduces the published assignment
    (root at location 0; level-1 tasks at 0, 4, 8, 12) and *"exploits the
    correspondence between the quad-tree structure and the idea of
    recursively dividing the topology into quadrants"*.
    """
    grid = groups.grid
    mapping = Mapping(graph=graph, grid=grid)
    for task in graph.tasks():
        corner = morton_decode(task.tid.index)
        if task.tid.level == 0:
            mapping.place(task.tid, corner)
        else:
            mapping.place(
                task.tid,
                groups.policy.leader_of_block(
                    corner, task.tid.level, groups.branching
                ),
            )
    return mapping


def sink_rooted_mapping(
    graph: TaskGraph, grid: OrientedGrid, sink: GridCoord = (0, 0)
) -> Mapping:
    """Map every interior task onto a single sink node.

    This is the *centralized* role assignment: leaves stay on their grid
    cells (coverage), all merging happens at ``sink``.  Satisfies coverage
    but concentrates energy drain — the counterpoint in the paper's
    divide-and-conquer vs. centralized design-flow example (Section 2).
    """
    grid.validate_member(sink)
    mapping = Mapping(graph=graph, grid=grid)
    for task in graph.tasks():
        if task.tid.level == 0:
            mapping.place(task.tid, morton_decode(task.tid.index))
        else:
            mapping.place(task.tid, sink)
    return mapping


def exhaustive_best_mapping(
    graph: TaskGraph,
    grid: OrientedGrid,
    cost_model: Optional[CostModel] = None,
    objective: str = "energy",
) -> Mapping:
    """Brute-force optimal placement of interior tasks (tiny graphs only).

    Leaves are pinned by coverage; each interior task tries every node of
    the grid, keeping the placement minimizing ``objective`` (``"energy"``
    or ``"latency"``).  Exponential — guarded to ``<= 4`` interior tasks —
    but invaluable as a test oracle: the recursive-quadrant mapping should
    be close to optimal under the uniform cost model.
    """
    interior = [t for t in graph.tasks() if graph.predecessors(t.tid)]
    if len(interior) > 4:
        raise ValueError(
            f"exhaustive mapping limited to 4 interior tasks, got {len(interior)}"
        )
    base = Mapping(graph=graph, grid=grid)
    for task in graph.tasks():
        if not graph.predecessors(task.tid):
            base.place(task.tid, morton_decode(task.tid.index))

    nodes = list(grid.nodes())
    best: Optional[Mapping] = None
    best_cost = float("inf")

    def rec(i: int, current: Mapping) -> None:
        nonlocal best, best_cost
        if i == len(interior):
            energy, latency = current.communication_cost(cost_model)
            cost = energy if objective == "energy" else latency
            if cost < best_cost:
                best_cost = cost
                best = Mapping(
                    graph=graph, grid=grid, placement=dict(current.placement)
                )
            return
        for node in nodes:
            current.placement[interior[i].tid] = node
            rec(i + 1, current)
        del current.placement[interior[i].tid]

    rec(0, base)
    assert best is not None
    return best


def mapping_table(mapping: Mapping) -> str:
    """Render a mapping as the paper's Figure 2/3 labelling: one line per
    level listing ``task-index -> grid location (Morton label)``."""
    lines: List[str] = []
    for level_tasks in mapping.graph.levels():
        level = level_tasks[0].tid.level
        cells = []
        for task in sorted(level_tasks, key=lambda t: t.tid.index):
            coord = mapping.placement[task.tid]
            from .coords import morton_encode  # local import to avoid cycle noise

            cells.append(f"{task.tid.index}->{morton_encode(coord)}@{coord}")
        lines.append(f"level {level}: " + ", ".join(cells))
    return "\n".join(lines)
