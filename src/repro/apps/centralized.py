"""The centralized-collection baseline.

The counterpoint in the paper's Section 2 design-flow example: instead of
in-network divide-and-conquer merging, every node forwards its raw reading
to a single sink, which computes the labeling locally.  Correctness is
trivially that of the oracle; the interesting output is the cost profile —
``O(N**1.5)`` total energy, a serialized hot-spot sink — that the
quad-tree algorithm beats (experiment E2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.coords import GridCoord
from ..core.cost_model import (
    CostModel,
    EnergyLedger,
    PerformanceReport,
    UniformCostModel,
)
from ..core.network_model import OrientedGrid
from .reference import count_regions, region_areas


@dataclass
class CentralizedResult:
    """Outcome of one centralized collection round."""

    regions: int
    areas: List[int]
    ledger: EnergyLedger
    latency: float
    messages: int
    hop_units: float

    def report(self) -> PerformanceReport:
        """Standard metric bundle (benchmark row shape)."""
        return PerformanceReport.from_ledger(
            self.ledger,
            latency=self.latency,
            messages=self.messages,
            data_units=float(self.messages),
        )


def run_centralized(
    feature_matrix: np.ndarray,
    cost_model: Optional[CostModel] = None,
    sink: GridCoord = (0, 0),
    units_per_reading: float = 1.0,
    serial_sink: bool = True,
) -> CentralizedResult:
    """Collect every node's raw reading at ``sink`` and label there.

    Every non-sink node sends ``units_per_reading`` along the XY route to
    the sink; relays are charged tx+rx per hop.  With ``serial_sink`` the
    latency accounts for the sink radio receiving one message at a time
    (the physically honest model); otherwise only the longest route
    counts.
    """
    feat = np.asarray(feature_matrix, dtype=bool)
    if feat.ndim != 2 or feat.shape[0] != feat.shape[1]:
        raise ValueError(f"feature matrix must be square, got {feat.shape}")
    side = feat.shape[0]
    grid = OrientedGrid(side)
    grid.validate_member(sink)
    cm = cost_model or UniformCostModel()

    ledger = EnergyLedger()
    messages = 0
    hop_units = 0.0
    max_route_latency = 0.0
    for node in grid.nodes():
        if node == sink:
            continue
        path = grid.route(node, sink)
        route_latency = cm.charge_path(ledger, path, units_per_reading)
        messages += 1
        hop_units += units_per_reading * (len(path) - 1)
        max_route_latency = max(max_route_latency, route_latency)

    if serial_sink:
        latency = max(
            max_route_latency, cm.tx_latency(units_per_reading) * messages
        )
    else:
        latency = max_route_latency

    return CentralizedResult(
        regions=count_regions(feat),
        areas=region_areas(feat),
        ledger=ledger,
        latency=latency,
        messages=messages,
        hop_units=hop_units,
    )


def compare_designs(
    feature_matrix: np.ndarray,
    cost_model: Optional[CostModel] = None,
    charge_compute: bool = False,
) -> dict:
    """Run both designs on the same input and tabulate the comparison.

    Returns the row dict used by experiment E2: latencies, energies,
    hot-spot loads, and the winner under each metric.
    """
    from ..core.virtual_architecture import VirtualArchitecture
    from .regions import feature_matrix_aggregation

    side = int(np.asarray(feature_matrix).shape[0])
    va = VirtualArchitecture(side, cost_model=cost_model)
    dnc = va.execute(
        feature_matrix_aggregation(feature_matrix), charge_compute=charge_compute
    )
    central = run_centralized(feature_matrix, cost_model=cost_model)
    dnc_report = dnc.report()
    central_report = central.report()
    return {
        "side": side,
        "dnc_latency": dnc_report.latency,
        "central_latency": central_report.latency,
        "dnc_energy": dnc_report.total_energy,
        "central_energy": central_report.total_energy,
        "dnc_max_node": dnc_report.max_node_energy,
        "central_max_node": central_report.max_node_energy,
        "latency_winner": (
            "divide-and-conquer"
            if dnc_report.latency < central_report.latency
            else "centralized"
        ),
        "energy_winner": (
            "divide-and-conquer"
            if dnc_report.total_energy < central_report.total_energy
            else "centralized"
        ),
        "energy_ratio": central_report.total_energy
        / max(dnc_report.total_energy, 1e-12),
    }
