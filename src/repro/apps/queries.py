"""Topographic queries over in-network distributed storage (Section 3.1).

*"Once this information is gathered and stored in the network, other
queries can be answered.  For example, a query to count the number of
regions of interest can obtain and sum the local counts of each of the
distributed storage nodes.  Processing and responding to queries could be
in most cases decoupled from the actual data gathering and boundary
estimation process."*

The storage configuration is produced by running the synthesized program
with ``max_level = L < maxrecLevel``: the reduction stops at the level-L
leaders, each holding the :class:`RegionSummary` of its block.  Queries
then run against this :class:`DistributedStorage`:

* :func:`count_regions_fast` — the paper's cheap query: sum the local
  counts.  Exact only when no region spans a storage-block boundary; the
  returned report carries the (known) overcount bound.
* :func:`count_regions_exact` — gather the stored summaries to the query
  point and merge them, paying the gather cost.
* :func:`enumerate_region_areas` — full region enumeration at the query
  point.
* range queries ("enumeration of regions with sensor readings in a
  specific range") live in ``repro.apps.statistics.query_reading_range``
  over a banded labeling.

Every query returns both its answer and its communication cost so the
decoupling claim (query cost independent of, and much smaller than, the
gathering cost) is measurable (experiment E7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.coords import GridCoord
from ..core.cost_model import CostModel, UniformCostModel
from ..core.executor import ExecutionResult
from ..core.network_model import OrientedGrid
from .boundary import MergeAccumulator, RegionSummary


@dataclass
class DistributedStorage:
    """Per-block summaries held at the level-L storage leaders."""

    grid: OrientedGrid
    level: int
    summaries: Dict[GridCoord, RegionSummary]

    @classmethod
    def from_execution(
        cls, grid: OrientedGrid, level: int, result: ExecutionResult
    ) -> "DistributedStorage":
        """Build from a partial-reduction execution (``max_level=level``)."""
        summaries: Dict[GridCoord, RegionSummary] = {}
        for coord, payload in result.exfiltrated.items():
            if not isinstance(payload, RegionSummary):
                raise TypeError(f"storage leader {coord} holds {type(payload)}")
            summaries[coord] = payload
        expected = (grid.width // 2**level) * (grid.height // 2**level)
        if len(summaries) != expected:
            raise ValueError(
                f"expected {expected} storage leaders at level {level}, "
                f"got {len(summaries)}"
            )
        return cls(grid=grid, level=level, summaries=summaries)

    def leaders(self) -> List[GridCoord]:
        """The storage nodes, sorted."""
        return sorted(self.summaries)

    def counts(self) -> Dict[GridCoord, int]:
        """``cell -> local region count`` — the payload map the deployed
        query engine (:class:`~repro.serve.engine.QueryEngine`) serves
        for count queries."""
        return {c: s.total_regions() for c, s in self.summaries.items()}

    def payloads(self) -> Dict[GridCoord, RegionSummary]:
        """``cell -> stored summary`` — the payload map for deployed
        summary-shipping queries (exact counts, area enumeration)."""
        return dict(self.summaries)


@dataclass
class QueryResult:
    """A query answer plus its communication cost."""

    value: object
    energy: float
    latency: float
    messages: int


def _gather_cost(
    storage: DistributedStorage,
    query_point: GridCoord,
    size_of: Dict[GridCoord, float],
    cost_model: CostModel,
) -> Tuple[float, float, int]:
    """Cost of each storage leader sending ``size_of[leader]`` units to the
    query point over shortest grid routes (parallel sends)."""
    energy = 0.0
    latency = 0.0
    messages = 0
    for leader, size in size_of.items():
        if leader == query_point:
            continue
        hops = storage.grid.hop_distance(leader, query_point)
        energy += cost_model.path_energy(size, hops)
        latency = max(latency, cost_model.path_latency(size, hops))
        messages += 1
    return energy, latency, messages


def count_regions_fast(
    storage: DistributedStorage,
    query_point: GridCoord = (0, 0),
    cost_model: Optional[CostModel] = None,
) -> QueryResult:
    """The paper's cheap count: sum each storage node's local region count.

    Each leader sends a single unit (its count).  Regions spanning block
    boundaries are counted once per block they touch, so the value is an
    upper bound; it is exact whenever every stored summary has zero open
    regions crossing into a neighbouring block that also sees them.
    """
    cm = cost_model or UniformCostModel()
    total = sum(s.total_regions() for s in storage.summaries.values())
    energy, latency, messages = _gather_cost(
        storage, query_point, {c: 1.0 for c in storage.summaries}, cm
    )
    return QueryResult(value=total, energy=energy, latency=latency, messages=messages)


def count_regions_exact(
    storage: DistributedStorage,
    query_point: GridCoord = (0, 0),
    cost_model: Optional[CostModel] = None,
) -> QueryResult:
    """Exact count: gather the stored summaries and merge at the query
    point (each leader ships its full boundary description)."""
    cm = cost_model or UniformCostModel()
    acc = MergeAccumulator((0, 0, storage.grid.width, storage.grid.height))
    for summary in storage.summaries.values():
        acc.add(summary)
    merged = acc.finalize()
    energy, latency, messages = _gather_cost(
        storage,
        query_point,
        {c: s.size_units for c, s in storage.summaries.items()},
        cm,
    )
    return QueryResult(
        value=merged.total_regions(),
        energy=energy,
        latency=latency,
        messages=messages,
    )


def enumerate_region_areas(
    storage: DistributedStorage,
    query_point: GridCoord = (0, 0),
    cost_model: Optional[CostModel] = None,
) -> QueryResult:
    """Gather + merge, returning the sorted areas of every region."""
    cm = cost_model or UniformCostModel()
    acc = MergeAccumulator((0, 0, storage.grid.width, storage.grid.height))
    for summary in storage.summaries.values():
        acc.add(summary)
    merged = acc.finalize()
    energy, latency, messages = _gather_cost(
        storage,
        query_point,
        {c: s.size_units for c, s in storage.summaries.items()},
        cm,
    )
    return QueryResult(
        value=merged.all_areas(), energy=energy, latency=latency, messages=messages
    )


def largest_region(
    storage: DistributedStorage,
    query_point: GridCoord = (0, 0),
    cost_model: Optional[CostModel] = None,
) -> QueryResult:
    """Area of the largest feature region."""
    result = enumerate_region_areas(storage, query_point, cost_model)
    areas: List[int] = result.value  # type: ignore[assignment]
    return QueryResult(
        value=max(areas) if areas else 0,
        energy=result.energy,
        latency=result.latency,
        messages=result.messages,
    )


def feature_area_total(
    storage: DistributedStorage,
    query_point: GridCoord = (0, 0),
    cost_model: Optional[CostModel] = None,
) -> QueryResult:
    """Total feature area — exactly answerable from local scalars, so each
    leader sends one unit (the decoupling showcase: O(blocks) cost)."""
    cm = cost_model or UniformCostModel()
    total = sum(
        sum(s.all_areas()) for s in storage.summaries.values()
    )
    energy, latency, messages = _gather_cost(
        storage, query_point, {c: 1.0 for c in storage.summaries}, cm
    )
    return QueryResult(value=total, energy=energy, latency=latency, messages=messages)
