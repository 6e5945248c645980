"""Identification and labeling of homogeneous regions (Section 3.1/4.1).

The case-study algorithm as an :class:`~repro.core.synthesis.Aggregation`
(:class:`RegionAggregation`) pluggable into the synthesized Figure 4
program, plus a pure in-memory recursive version
(:func:`label_regions_quadtree`) used to validate the boundary-merge logic
independently of the program/executor machinery.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.coords import GridCoord, is_power_of_two
from ..core.synthesis import Aggregation
from .boundary import MergeAccumulator, RegionSummary, cell_summary


class RegionAggregation(Aggregation):
    """Boundary-merging aggregation for the region-labeling case study.

    Parameters
    ----------
    feature:
        ``coord -> bool``: is the PoC at ``coord`` a feature node for the
        query (Section 3.1's binary status)?
    sense_operations:
        Compute cost charged for the level-0 threshold comparison.
    """

    def __init__(
        self,
        feature: Callable[[GridCoord], bool],
        sense_operations: float = 1.0,
    ):
        self.feature = feature
        self.sense_operations = sense_operations

    def local(self, coord: GridCoord) -> RegionSummary:
        """Level-0 summary: the cell's own binary status."""
        return cell_summary(coord, bool(self.feature(coord)))

    def make_accumulator(self, corner: GridCoord, level: int) -> MergeAccumulator:
        """``mySubGraph[level]``: an accumulator over the level's block."""
        side = 2**level
        return MergeAccumulator((corner[0], corner[1], side, side))

    def merge(self, accumulator: MergeAccumulator, payload: RegionSummary) -> None:
        """Incremental merge of one child summary (any arrival order)."""
        accumulator.add(payload)

    def finalize(self, accumulator) -> RegionSummary:
        """Close out a completed level: stitch + re-summarize."""
        if isinstance(accumulator, RegionSummary):
            return accumulator  # level 0 is already a summary
        return accumulator.finalize()

    def size_of(self, payload: RegionSummary) -> float:
        """Message size = the boundary description's size."""
        return payload.size_units

    def local_operations(self, coord: GridCoord) -> float:
        return self.sense_operations

    def merge_operations(self, payload: RegionSummary) -> float:
        """Merging walks the incoming perimeter once."""
        return payload.size_units


def feature_matrix_aggregation(feature_matrix: np.ndarray) -> RegionAggregation:
    """Build a :class:`RegionAggregation` from a boolean matrix indexed
    ``[y, x]`` (the output of ``repro.apps.fields``)."""
    feat = np.asarray(feature_matrix, dtype=bool)
    if feat.ndim != 2 or feat.shape[0] != feat.shape[1]:
        raise ValueError(f"feature matrix must be square 2-D, got {feat.shape}")
    return RegionAggregation(lambda coord: bool(feat[coord[1], coord[0]]))


def label_regions_quadtree(feature_matrix: np.ndarray) -> RegionSummary:
    """Pure in-memory divide-and-conquer labeling (no network machinery).

    Recursively splits the grid into quadrants, summarizes 1x1 extents at
    the leaves, and merges upward — the exact data path of the distributed
    algorithm, executed depth-first.  The returned root summary's
    :meth:`~repro.apps.boundary.RegionSummary.total_regions` equals the
    4-connected component count of the matrix.
    """
    feat = np.asarray(feature_matrix, dtype=bool)
    if feat.ndim != 2 or feat.shape[0] != feat.shape[1]:
        raise ValueError(f"feature matrix must be square, got {feat.shape}")
    side = feat.shape[0]
    if not is_power_of_two(side):
        raise ValueError(f"side must be a power of two, got {side}")

    def solve(x0: int, y0: int, size: int) -> RegionSummary:
        if size == 1:
            return cell_summary((x0, y0), bool(feat[y0, x0]))
        half = size // 2
        acc = MergeAccumulator((x0, y0, size, size))
        for dy in (0, half):
            for dx in (0, half):
                acc.add(solve(x0 + dx, y0 + dy, half))
        return acc.finalize()

    return solve(0, 0, side)


def summary_statistics(summary: RegionSummary) -> dict:
    """Flat statistics of a summary for reports and benchmark rows."""
    return {
        "regions": summary.total_regions(),
        "open_regions": summary.open_count,
        "closed_regions": summary.closed_count,
        "perimeter_cells": len(summary.perimeter),
        "size_units": summary.size_units,
        "total_area": sum(summary.all_areas()),
    }
