"""Statistical computation primitives and banded topographic queries.

Section 2: *"Computation primitives could include summing, sorting, or
ranking a set of data values from a set of sensor nodes"* (citing the
fundamental-protocols work [5]).  Section 3.1 motivates queries such as
*"visualizing gradients of sensor readings across the region or other
queries such as enumeration of regions with sensor readings in a specific
range"*.

This module provides the data-value primitives as mergeable aggregations
(so they run through the same synthesized reduction as everything else)
and the range/banded queries on top of the region-labeling machinery:

* :class:`HistogramAggregation` — in-network histogram; exact quantile /
  rank queries then run against the root histogram
  (:func:`quantile_from_histogram`, :func:`rank_of_value`).
* :class:`TopKAggregation` — in-network top-k (the "ranking" primitive):
  each summary keeps the k largest readings with their coordinates.
* :func:`banded_labeling` — multi-threshold labeling: partition readings
  into bands and label the homogeneous regions of every band.
* :func:`query_reading_range` — "enumeration of regions with sensor
  readings in a specific range" over a banded labeling.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..core.coords import GridCoord
from ..core.synthesis import Aggregation
from .reference import count_regions, region_areas


class HistogramAggregation(Aggregation):
    """In-network histogram of per-node readings.

    ``edges`` are the bin boundaries (ascending); readings below the first
    edge land in bin 0, above the last in the final bin — the histogram
    has ``len(edges) + 1`` bins.  Summaries are count vectors and merge by
    elementwise addition, so the reduction is exact and order-independent.
    """

    def __init__(self, reading: Callable[[GridCoord], float], edges: Sequence[float]):
        edge_list = list(edges)
        if edge_list != sorted(edge_list):
            raise ValueError("histogram edges must be ascending")
        if not edge_list:
            raise ValueError("at least one edge is required")
        self.reading = reading
        self.edges = edge_list

    @property
    def num_bins(self) -> int:
        """Number of histogram bins (``len(edges) + 1``)."""
        return len(self.edges) + 1

    def _bin_of(self, value: float) -> int:
        return bisect.bisect_right(self.edges, value)

    def local(self, coord: GridCoord) -> List[int]:
        counts = [0] * self.num_bins
        counts[self._bin_of(float(self.reading(coord)))] = 1
        return counts

    def make_accumulator(self, corner: GridCoord, level: int) -> List[int]:
        return [0] * self.num_bins

    def merge(self, accumulator: List[int], payload: List[int]) -> None:
        for i, c in enumerate(payload):
            accumulator[i] += c

    def finalize(self, accumulator: List[int]) -> List[int]:
        return list(accumulator)

    def size_of(self, payload: List[int]) -> float:
        return float(self.num_bins)


def quantile_from_histogram(
    counts: Sequence[int], edges: Sequence[float], q: float
) -> float:
    """Approximate the q-quantile from a histogram.

    Returns the upper edge of the bin containing the quantile (the
    conventional conservative estimate; resolution is the bin width).
    Open-ended extreme bins return the adjacent edge.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        raise ValueError("empty histogram")
    target = q * total
    running = 0.0
    for i, c in enumerate(counts):
        running += c
        if running >= target:
            if i == 0:
                return float(edges[0])
            if i >= len(edges):
                return float(edges[-1])
            return float(edges[i])
    return float(edges[-1])


def rank_of_value(counts: Sequence[int], edges: Sequence[float], value: float) -> int:
    """Number of readings strictly below ``value``'s bin — the in-network
    "ranking" primitive's answer at histogram resolution."""
    b = bisect.bisect_right(list(edges), value)
    return int(sum(counts[:b]))


class TopKAggregation(Aggregation):
    """In-network top-k readings with their coordinates.

    The "sorting/ranking" primitive for the k hottest points of coverage:
    each summary is the k largest ``(reading, coord)`` pairs of its
    extent; merging keeps the k largest of the union.  Exact and
    order-independent.
    """

    def __init__(self, reading: Callable[[GridCoord], float], k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.reading = reading
        self.k = k

    def local(self, coord: GridCoord) -> List[Tuple[float, GridCoord]]:
        return [(float(self.reading(coord)), coord)]

    def make_accumulator(
        self, corner: GridCoord, level: int
    ) -> List[Tuple[float, GridCoord]]:
        return []

    def merge(self, accumulator: List, payload: List) -> None:
        accumulator.extend(payload)
        accumulator.sort(key=lambda rc: (-rc[0], rc[1]))
        del accumulator[self.k :]

    def finalize(self, accumulator: List) -> List[Tuple[float, GridCoord]]:
        out = sorted(accumulator, key=lambda rc: (-rc[0], rc[1]))
        return out[: self.k]

    def size_of(self, payload: List) -> float:
        return float(max(1, len(payload)))


@dataclass
class BandedLabeling:
    """Region labeling of every reading band.

    ``bands[i]`` covers readings in ``[edges[i-1], edges[i])`` with the
    usual open ends; each entry records the band's region count and areas.
    """

    edges: List[float]
    band_feature: List[np.ndarray]
    band_regions: List[int]
    band_areas: List[List[int]]

    @property
    def num_bands(self) -> int:
        """Number of bands (``len(edges) + 1``)."""
        return len(self.edges) + 1

    def band_of(self, value: float) -> int:
        """Index of the band containing ``value``."""
        return bisect.bisect_right(self.edges, value)


def banded_labeling(readings: np.ndarray, edges: Sequence[float]) -> BandedLabeling:
    """Label the homogeneous regions of every reading band.

    The multi-threshold generalization of the binary case study: the
    terrain is partitioned into iso-bands (the paper's "gradients of
    sensor readings" visualization) and each band's connected regions are
    labelled.  Uses the reference labeler; the in-network version runs one
    binary reduction per band (see ``bench_e7``-style cost analysis).
    """
    data = np.asarray(readings, dtype=float)
    edge_list = list(edges)
    if edge_list != sorted(edge_list):
        raise ValueError("band edges must be ascending")
    bands: List[np.ndarray] = []
    counts: List[int] = []
    areas: List[List[int]] = []
    bin_index = np.digitize(data, edge_list, right=False)
    for b in range(len(edge_list) + 1):
        feat = bin_index == b
        bands.append(feat)
        counts.append(count_regions(feat))
        areas.append(region_areas(feat))
    return BandedLabeling(
        edges=edge_list,
        band_feature=bands,
        band_regions=counts,
        band_areas=areas,
    )


def query_reading_range(
    labeling: BandedLabeling, lo: float, hi: float
) -> Dict[str, object]:
    """Enumerate regions with readings in ``[lo, hi)`` (Section 3.1's
    range query), answered from a banded labeling.

    Returns the per-band region counts and total area within the range.
    Bands partially overlapping the range are included whole (band
    resolution is the query's precision, as with any pre-computed
    banding).
    """
    if hi < lo:
        raise ValueError("hi must be >= lo")
    first = labeling.band_of(lo)
    last = labeling.band_of(hi - 1e-12) if hi > lo else first
    bands = list(range(first, last + 1))
    return {
        "bands": bands,
        "regions_per_band": [labeling.band_regions[b] for b in bands],
        "total_regions": sum(labeling.band_regions[b] for b in bands),
        "total_area": sum(sum(labeling.band_areas[b]) for b in bands),
    }
