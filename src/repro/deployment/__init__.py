"""Physical deployment substrate: terrain, cells, nodes, and the real
network graph ``G_R`` of Section 5.

The paper's runtime protocols are defined over an arbitrarily, densely
deployed network on a square terrain partitioned into cells.  This package
simulates that substrate (the paper used physical motes): deployment
generators, the unit-disk connectivity graph, and per-node energy accounts.
"""

from .node import NodeDeadError, SensorNode
from .placement import (
    clustered,
    density_per_cell,
    ensure_coverage,
    one_per_cell,
    perturbed_grid,
    poisson_disk,
    punch_hole,
    uniform_random,
)
from .terrain import CellGrid, Point, Terrain, max_cell_side_for_range
from .topology import RealNetwork, build_network, covered_deployment

__all__ = [
    "CellGrid",
    "NodeDeadError",
    "Point",
    "RealNetwork",
    "SensorNode",
    "Terrain",
    "build_network",
    "clustered",
    "covered_deployment",
    "density_per_cell",
    "ensure_coverage",
    "max_cell_side_for_range",
    "one_per_cell",
    "perturbed_grid",
    "poisson_disk",
    "punch_hole",
    "uniform_random",
]
