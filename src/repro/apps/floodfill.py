"""Flat flood-fill region labeling: the local-algorithm baseline.

A third design point between the paper's hierarchical divide-and-conquer
and the centralized collection: **label propagation**.  Every feature node
starts with its own id (its Morton index) and repeatedly exchanges labels
with feature neighbours, adopting the minimum; when the network quiesces,
each region carries the id of its minimum member and counting regions
means counting nodes whose label equals their own id.

This is the classic "local algorithm" the parallel-labeling literature the
paper builds on (Alnuweiri & Prasanna [3]) uses as the baseline: simple,
fully local, no hierarchy — but its round complexity is the maximum
*intra-region* path length (worst case O(N) for a serpentine region,
vs the quad-tree's O(√N)), and every round touches every boundary edge.

Executed here on the virtual grid with the uniform cost model so it slots
directly into the E2-style comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.coords import GridCoord, morton_encode
from ..core.cost_model import (
    CostModel,
    EnergyLedger,
    PerformanceReport,
    UniformCostModel,
)
from ..core.network_model import OrientedGrid


@dataclass
class FloodFillResult:
    """Outcome of a flood-fill labeling round.

    ``labels`` maps every feature coordinate to its region's canonical id
    (the minimum Morton index in the region); ``rounds`` is the number of
    synchronous exchange rounds to quiescence.
    """

    labels: Dict[GridCoord, int]
    regions: int
    rounds: int
    ledger: EnergyLedger
    messages: int

    def areas(self) -> List[int]:
        """Sorted region areas (cell counts)."""
        counts: Dict[int, int] = {}
        for label in self.labels.values():
            counts[label] = counts.get(label, 0) + 1
        return sorted(counts.values())

    def report(self, latency_per_round: float = 1.0) -> PerformanceReport:
        """Standard metric bundle; latency = rounds (one slot each)."""
        return PerformanceReport.from_ledger(
            self.ledger,
            latency=self.rounds * latency_per_round,
            messages=self.messages,
            data_units=float(self.messages),
        )


def run_floodfill(
    feature_matrix: np.ndarray,
    cost_model: Optional[CostModel] = None,
    broadcast_per_round: bool = True,
) -> FloodFillResult:
    """Synchronous min-label propagation over the virtual grid.

    Each round, every feature node whose label changed in the previous
    round broadcasts it to its 4-neighbourhood (``broadcast_per_round``
    charges one tx per active node per round, one rx per feature
    neighbour — the radio broadcast advantage); nodes adopt the minimum
    label heard.  Terminates when no label changes.
    """
    feat = np.asarray(feature_matrix, dtype=bool)
    if feat.ndim != 2 or feat.shape[0] != feat.shape[1]:
        raise ValueError(f"feature matrix must be square, got {feat.shape}")
    side = feat.shape[0]
    grid = OrientedGrid(side)
    cm = cost_model or UniformCostModel()
    ledger = EnergyLedger()

    feature_nodes = [
        (x, y) for y in range(side) for x in range(side) if feat[y, x]
    ]
    labels: Dict[GridCoord, int] = {
        c: morton_encode(c) for c in feature_nodes
    }
    feature_set = set(feature_nodes)
    neighbours: Dict[GridCoord, List[GridCoord]] = {
        c: [n for n in grid.neighbors(c) if n in feature_set]
        for c in feature_nodes
    }

    active = set(feature_nodes)
    rounds = 0
    messages = 0
    while active:
        rounds += 1
        # transmit phase: every active node announces its label once
        heard: Dict[GridCoord, int] = {}
        for node in active:
            if not neighbours[node] and not broadcast_per_round:
                continue
            ledger.charge(node, cm.tx_energy(1.0), "tx")
            messages += 1
            for nbr in neighbours[node]:
                ledger.charge(nbr, cm.rx_energy(1.0), "rx")
                current = heard.get(nbr)
                if current is None or labels[node] < current:
                    heard[nbr] = labels[node]
        # adopt phase
        next_active = set()
        for node, best in heard.items():
            if best < labels[node]:
                labels[node] = best
                next_active.add(node)
        active = next_active

    regions = sum(1 for c, lab in labels.items() if lab == morton_encode(c))
    return FloodFillResult(
        labels=labels,
        regions=regions,
        rounds=rounds,
        ledger=ledger,
        messages=messages,
    )


def compare_three_designs(
    feature_matrix: np.ndarray,
    cost_model: Optional[CostModel] = None,
) -> Dict[str, Dict[str, float]]:
    """Quad-tree vs centralized vs flood-fill on the same input.

    Returns ``design -> {latency, total_energy, max_node_energy,
    messages, regions}`` for the three-way version of the Section 2
    comparison (experiment E2+).
    """
    from ..core.virtual_architecture import VirtualArchitecture
    from .centralized import run_centralized
    from .regions import feature_matrix_aggregation

    feat = np.asarray(feature_matrix, dtype=bool)
    side = feat.shape[0]
    out: Dict[str, Dict[str, float]] = {}

    va = VirtualArchitecture(side, cost_model=cost_model)
    dnc = va.execute(feature_matrix_aggregation(feat), charge_compute=False)
    dnc_report = dnc.report()
    out["quad-tree"] = {
        "latency": dnc_report.latency,
        "total_energy": dnc_report.total_energy,
        "max_node_energy": dnc_report.max_node_energy,
        "messages": float(dnc.messages),
        "regions": float(dnc.root_payload.total_regions()),
    }

    central = run_centralized(feat, cost_model=cost_model)
    central_report = central.report()
    out["centralized"] = {
        "latency": central_report.latency,
        "total_energy": central_report.total_energy,
        "max_node_energy": central_report.max_node_energy,
        "messages": float(central.messages),
        "regions": float(central.regions),
    }

    flood = run_floodfill(feat, cost_model=cost_model)
    flood_report = flood.report()
    out["flood-fill"] = {
        "latency": flood_report.latency,
        "total_energy": flood_report.total_energy,
        "max_node_energy": flood_report.max_node_energy,
        "messages": float(flood.messages),
        "regions": float(flood.regions),
    }
    return out
