"""Architecture-independent application model: annotated task graphs.

Section 2: *"the algorithm is specified using an architecture-independent
application model such as an annotated task graph.  The application graph
is used as an input to a mapping tool ..."*.  Section 4.1 represents the
case-study algorithm as *"a data flow graph structured as a quad-tree
(Figure 2).  A leaf node corresponds to a task that is linked to the
sensing interface, and interior nodes represent in-network processing on
the sampled data."*

This module provides the generic :class:`TaskGraph` DAG with per-task and
per-edge annotations, plus :func:`build_quadtree` which constructs exactly
the Figure 2 graph (task ids are the Morton indices of the grid regions the
tasks oversee, reproducing the paper's node labels 0..15 / {0, 4, 8, 12} /
{0} for a 4x4 grid).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .coords import morton_encode
from .network_model import OrientedGrid

#: Task kinds distinguished by the synthesis stage.
SENSING = "sensing"
PROCESSING = "processing"
SINK = "sink"


@dataclass(frozen=True)
class TaskId:
    """Identity of a task: ``(level, index)``.

    ``level`` is the task's height in the reduction hierarchy (0 for
    sensing leaves) and ``index`` is unique within the level.  For
    quad-tree graphs the index is the Morton index of the task's region,
    matching Figure 2's node labels.
    """

    level: int
    index: int

    def __repr__(self) -> str:
        return f"T{self.level}.{self.index}"


@dataclass
class Task:
    """One vertex of the application task graph.

    Attributes
    ----------
    tid:
        Unique :class:`TaskId`.
    kind:
        ``"sensing"`` (linked to the sensing interface), ``"processing"``
        (in-network computation), or ``"sink"`` (exfiltration point).
    region:
        Optional geographic extent annotation
        ``(x0, y0, width, height)`` in virtual-grid cells: the oversight of
        the task.  The mapping stage uses it to check the spatial
        correlation constraint.
    annotations:
        Free-form designer annotations (e.g. expected output data units,
        compute operations per input unit) consumed by the cost analysis.
    """

    tid: TaskId
    kind: str = PROCESSING
    region: Optional[Tuple[int, int, int, int]] = None
    annotations: Dict[str, float] = field(default_factory=dict)

    def __hash__(self) -> int:
        return hash(self.tid)


class TaskGraph:
    """A directed acyclic data-flow graph of :class:`Task` vertices.

    Edges point from producer (child in the reduction tree) to consumer
    (parent).  Each edge may carry a ``data_units`` annotation used in
    first-order performance estimation.
    """

    def __init__(self) -> None:
        self._tasks: Dict[TaskId, Task] = {}
        self._succ: Dict[TaskId, List[TaskId]] = {}
        self._pred: Dict[TaskId, List[TaskId]] = {}
        self._edge_units: Dict[Tuple[TaskId, TaskId], float] = {}

    # -- construction -------------------------------------------------------

    def add_task(self, task: Task) -> Task:
        """Insert a task; raises on duplicate id."""
        if task.tid in self._tasks:
            raise ValueError(f"duplicate task id {task.tid!r}")
        self._tasks[task.tid] = task
        self._succ[task.tid] = []
        self._pred[task.tid] = []
        return task

    def add_edge(self, src: TaskId, dst: TaskId, data_units: float = 1.0) -> None:
        """Add a data-flow edge ``src -> dst`` annotated with ``data_units``."""
        if src not in self._tasks or dst not in self._tasks:
            raise KeyError(f"both endpoints must exist: {src!r} -> {dst!r}")
        if src == dst:
            raise ValueError(f"self edge on {src!r}")
        if dst in self._succ[src]:
            raise ValueError(f"duplicate edge {src!r} -> {dst!r}")
        self._succ[src].append(dst)
        self._pred[dst].append(src)
        self._edge_units[(src, dst)] = data_units
        if self._has_cycle_from(dst):
            # roll back to preserve the DAG invariant
            self._succ[src].remove(dst)
            self._pred[dst].remove(src)
            del self._edge_units[(src, dst)]
            raise ValueError(f"edge {src!r} -> {dst!r} would create a cycle")

    def _has_cycle_from(self, start: TaskId) -> bool:
        seen: Set[TaskId] = set()
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in self._succ[node]:
                if nxt == start:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, tid: TaskId) -> bool:
        return tid in self._tasks

    def task(self, tid: TaskId) -> Task:
        """Look up a task by id."""
        return self._tasks[tid]

    def tasks(self) -> Iterator[Task]:
        """Iterate all tasks (insertion order)."""
        return iter(self._tasks.values())

    def successors(self, tid: TaskId) -> List[TaskId]:
        """Consumers of ``tid``'s output (its parents in the reduction)."""
        return list(self._succ[tid])

    def predecessors(self, tid: TaskId) -> List[TaskId]:
        """Producers feeding ``tid`` (its children in the reduction)."""
        return list(self._pred[tid])

    def edge_units(self, src: TaskId, dst: TaskId) -> float:
        """The ``data_units`` annotation of an edge."""
        return self._edge_units[(src, dst)]

    def edges(self) -> Iterator[Tuple[TaskId, TaskId, float]]:
        """Iterate ``(src, dst, data_units)`` triples."""
        for (src, dst), units in self._edge_units.items():
            yield src, dst, units

    def leaves(self) -> List[Task]:
        """Tasks with no predecessors (the sensing tasks of Figure 2)."""
        return [t for t in self._tasks.values() if not self._pred[t.tid]]

    def roots(self) -> List[Task]:
        """Tasks with no successors (exfiltration points)."""
        return [t for t in self._tasks.values() if not self._succ[t.tid]]

    def sensing_tasks(self) -> List[Task]:
        """All tasks of kind ``"sensing"``."""
        return [t for t in self._tasks.values() if t.kind == SENSING]

    def levels(self) -> List[List[Task]]:
        """Tasks grouped by ``tid.level``, ascending."""
        by_level: Dict[int, List[Task]] = {}
        for t in self._tasks.values():
            by_level.setdefault(t.tid.level, []).append(t)
        return [by_level[k] for k in sorted(by_level)]

    def topological_order(self) -> List[Task]:
        """Kahn topological order (children before parents)."""
        indeg = {tid: len(self._pred[tid]) for tid in self._tasks}
        frontier = [tid for tid, d in indeg.items() if d == 0]
        order: List[Task] = []
        while frontier:
            tid = frontier.pop()
            order.append(self._tasks[tid])
            for nxt in self._succ[tid]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    frontier.append(nxt)
        if len(order) != len(self._tasks):
            raise RuntimeError("task graph contains a cycle")
        return order

    def is_tree(self) -> bool:
        """True iff every task has at most one successor and there is a
        single root — the shape the synthesis stage expects."""
        if len(self.roots()) != 1:
            return False
        return all(len(self._succ[tid]) <= 1 for tid in self._tasks)

    def arity(self) -> Optional[int]:
        """If every interior task has the same number of predecessors,
        return it; else None.  The paper's synthesis keys on this: a k-ary
        tree maps onto the group-communication middleware."""
        degrees = {
            len(self._pred[tid])
            for tid in self._tasks
            if self._pred[tid]
        }
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def validate(self) -> None:
        """Raise :class:`ValueError` on structural problems.

        Checks: non-empty; acyclic (by construction); every sensing task is
        a leaf; region annotations of a parent cover its children.
        """
        if not self._tasks:
            raise ValueError("task graph is empty")
        for t in self._tasks.values():
            if t.kind == SENSING and self._pred[t.tid]:
                raise ValueError(f"sensing task {t.tid!r} has predecessors")
            if t.region is not None:
                for p in self._pred[t.tid]:
                    child = self._tasks[p]
                    if child.region is not None and not _region_contains(
                        t.region, child.region
                    ):
                        raise ValueError(
                            f"region of {t.tid!r} does not cover child {p!r}"
                        )
        self.topological_order()  # raises on cycles


def _region_contains(
    outer: Tuple[int, int, int, int], inner: Tuple[int, int, int, int]
) -> bool:
    ox, oy, ow, oh = outer
    ix, iy, iw, ih = inner
    return ox <= ix and oy <= iy and ix + iw <= ox + ow and iy + ih <= oy + oh


def build_quadtree(grid: OrientedGrid, data_units_per_edge: float = 1.0) -> TaskGraph:
    """Construct the Figure 2 quad-tree task graph for a square grid.

    The grid must be quadtree-compatible (square, power-of-two side).  The
    graph has one level-0 **sensing** task per grid cell and one
    **processing** task per quadrant at each level up to ``log2(side)``;
    the root task is additionally responsible for exfiltration.  Task
    indices are Morton indices of the region's NW corner — for a 4x4 grid
    the leaves are labelled 0..15 and the level-1 tasks 0, 4, 8, 12 exactly
    as printed in Figure 2.

    ``data_units_per_edge`` is the designer's first-order annotation of the
    message size on every child -> parent edge; the boundary-merging
    analysis replaces it with data-dependent sizes at estimation time.
    """
    if not grid.is_quadtree_compatible:
        raise ValueError(
            f"{grid!r} is not square with power-of-two side; "
            "the quad-tree application model requires it (Section 4.1)"
        )
    side = grid.width
    max_level = grid.max_level
    tg = TaskGraph()

    # Level 0: one sensing task per grid cell, id = Morton index.
    for y in range(side):
        for x in range(side):
            tg.add_task(
                Task(
                    tid=TaskId(0, morton_encode((x, y))),
                    kind=SENSING,
                    region=(x, y, 1, 1),
                )
            )

    # Interior levels: one merge task per 2^k block.
    for level in range(1, max_level + 1):
        block = 2**level
        for y in range(0, side, block):
            for x in range(0, side, block):
                kind = PROCESSING if level < max_level else SINK
                parent = Task(
                    tid=TaskId(level, morton_encode((x, y))),
                    kind=kind,
                    region=(x, y, block, block),
                )
                tg.add_task(parent)
                half = block // 2
                for dy in (0, half):
                    for dx in (0, half):
                        child = TaskId(level - 1, morton_encode((x + dx, y + dy)))
                        tg.add_edge(child, parent.tid, data_units_per_edge)
    return tg


def quadtree_ascii(tg: TaskGraph) -> str:
    """Render a quad-tree task graph as indented text (Figure 2 regenerated).

    One line per task, children indented under parents, ids shown as the
    paper's integer labels.
    """
    roots = tg.roots()
    lines: List[str] = []

    def walk(tid: TaskId, depth: int) -> None:
        task = tg.task(tid)
        tag = {SENSING: "sense", PROCESSING: "merge", SINK: "root"}.get(
            task.kind, task.kind
        )
        lines.append(f"{'  ' * depth}[L{tid.level}] {tid.index} ({tag})")
        for child in sorted(tg.predecessors(tid), key=lambda t: t.index):
            walk(child, depth + 1)

    for root in sorted(roots, key=lambda t: t.tid.index):
        walk(root.tid, 0)
    return "\n".join(lines)


def build_linear_chain(length: int, data_units_per_edge: float = 1.0) -> TaskGraph:
    """A degenerate pipeline task graph (used in tests and as a non-tree
    counterexample for the mapping constraint checkers)."""
    if length < 1:
        raise ValueError("length must be >= 1")
    tg = TaskGraph()
    prev: Optional[TaskId] = None
    for i in range(length):
        kind = SENSING if i == 0 else (SINK if i == length - 1 else PROCESSING)
        tid = TaskId(i, 0)
        tg.add_task(Task(tid=tid, kind=kind))
        if prev is not None:
            tg.add_edge(prev, tid, data_units_per_edge)
        prev = tid
    return tg
