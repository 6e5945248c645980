"""The end-to-end topographic-querying application.

Wires the whole methodology together for the case study: a scalar field is
sampled at the points of coverage, thresholded into feature status, run
through the synthesized quad-tree program — on the virtual grid
(design-time) or on a physical deployment (the full stack) — and checked
against the centralized oracle.  This is the "networked sensing
application" box at the top of the paper's Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.cost_model import PerformanceReport
from ..core.executor import ExecutionResult
from ..core.synthesis import SynthesizedProgram
from ..core.virtual_architecture import VirtualArchitecture
from .boundary import RegionSummary
from .fields import ScalarField, sample_grid, threshold_features
from .reference import count_regions, region_areas
from .regions import RegionAggregation, feature_matrix_aggregation


@dataclass
class RegionReport:
    """Result of one labeling round plus its cost metrics.

    ``correct`` compares the in-network result against the centralized
    oracle on the same feature matrix.
    """

    regions: int
    areas: list
    expected_regions: int
    expected_areas: list
    performance: PerformanceReport
    correct: bool = field(init=False)

    def __post_init__(self) -> None:
        self.correct = (
            self.regions == self.expected_regions
            and list(self.areas) == list(self.expected_areas)
        )


class TopographicQueryApp:
    """The case-study application over a virtual architecture.

    Parameters
    ----------
    architecture:
        The virtual architecture to design against.
    field_:
        The monitored phenomenon.
    threshold:
        Feature threshold of the query (Section 3.1).
    """

    def __init__(
        self,
        architecture: VirtualArchitecture,
        field_: ScalarField,
        threshold: float,
    ):
        self.architecture = architecture
        self.field = field_
        self.threshold = threshold
        self.readings = sample_grid(field_, architecture.side)
        self.feature_matrix = threshold_features(self.readings, threshold)
        self.aggregation: RegionAggregation = feature_matrix_aggregation(
            self.feature_matrix
        )

    def synthesize(self, max_level: Optional[int] = None) -> SynthesizedProgram:
        """The Figure 4 program for this query."""
        return self.architecture.synthesize(self.aggregation, max_level=max_level)

    def run_virtual(
        self,
        charge_compute: bool = True,
        max_level: Optional[int] = None,
    ) -> RegionReport:
        """One round on the virtual grid (design-time execution)."""
        result = self.architecture.execute(
            self.aggregation, max_level=max_level, charge_compute=charge_compute
        )
        return self._report(result)

    def execution_to_report(self, result: ExecutionResult) -> RegionReport:
        """Convert a raw execution (e.g. from a custom executor) into a
        checked report."""
        return self._report(result)

    def _report(self, result: ExecutionResult) -> RegionReport:
        summary = self._extract_summary(result.exfiltrated)
        return RegionReport(
            regions=summary.total_regions() if summary else 0,
            areas=summary.all_areas() if summary else [],
            expected_regions=count_regions(self.feature_matrix),
            expected_areas=region_areas(self.feature_matrix),
            performance=result.report(),
        )

    @staticmethod
    def _extract_summary(exfiltrated: Dict) -> Optional[RegionSummary]:
        if len(exfiltrated) != 1:
            raise ValueError(
                "full reduction expected exactly one exfiltrated summary, "
                f"got {len(exfiltrated)} (use queries.py for partial reductions)"
            )
        payload = next(iter(exfiltrated.values()))
        if not isinstance(payload, RegionSummary):
            raise TypeError(f"unexpected exfiltrated payload {type(payload)}")
        return payload

    def ascii_feature_map(self) -> str:
        """Render the feature matrix ('#' = feature cell) for reports."""
        rows = []
        for y in range(self.feature_matrix.shape[0]):
            rows.append(
                "".join(
                    "#" if self.feature_matrix[y, x] else "."
                    for x in range(self.feature_matrix.shape[1])
                )
            )
        return "\n".join(rows)
