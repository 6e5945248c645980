"""Shard planning for the space-partitioned simulator (DESIGN.md §12).

The deployment grid is cut into ``K`` contiguous, cell-aligned vertical
stripes (equal widths, so ``K`` must divide the side), so every cell's
members live on one shard and only radio traffic crosses a boundary.

The plan is a pure function of the deployment geometry (not of liveness
or traffic), so the same seeded configuration always yields the same
decomposition — a precondition for the serial == partitioned fingerprint
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..deployment.topology import RealNetwork


@dataclass(frozen=True)
class ShardPlan:
    """The static decomposition of one deployment into ``partitions`` shards.

    ``local_nodes[k]`` is the sorted tuple of node ids shard ``k`` owns;
    ``shard_of_node`` maps every node to its owner.
    """

    partitions: int
    side: int
    shard_of_node: Dict[int, int]
    local_nodes: Tuple[Tuple[int, ...], ...]


def plan_stripes(network: RealNetwork, partitions: int) -> ShardPlan:
    """Cut ``network`` into ``partitions`` equal vertical cell stripes.

    Raises :class:`ValueError` unless ``1 <= partitions <= side`` and
    ``partitions`` divides the grid side — unequal stripes would make the
    shard of a cell depend on rounding, and the paper's power-of-two grid
    sides make the divisibility requirement free in practice.
    """
    side = network.cells.cells_per_side
    if partitions < 1:
        raise ValueError(f"partitions must be >= 1, got {partitions}")
    if partitions > side or side % partitions != 0:
        raise ValueError(
            f"partitions must divide the grid side ({side}), got {partitions}"
        )
    shard_of_node: Dict[int, int] = {}
    local: List[List[int]] = [[] for _ in range(partitions)]
    for nid in sorted(network.nodes):
        shard = network.cell_of(nid)[0] * partitions // side
        shard_of_node[nid] = shard
        local[shard].append(nid)
    return ShardPlan(
        partitions=partitions,
        side=side,
        shard_of_node=shard_of_node,
        local_nodes=tuple(tuple(ids) for ids in local),
    )
