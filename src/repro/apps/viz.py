"""ASCII visualization of fields, labelings, deployments, and hierarchies.

The paper's application is *topographic querying* — "understanding the
graphical delineation of features of interest".  These renderers give the
examples and debugging sessions that delineation without any plotting
dependency: everything is monospace text.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..core.coords import GridCoord
from ..core.groups import HierarchicalGroups
from ..deployment.topology import RealNetwork
from .reference import label_components

#: Characters used for region labels (cycled when regions exceed the set).
LABEL_CHARS = "123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"


def render_feature_map(feature: np.ndarray, on: str = "#", off: str = ".") -> str:
    """Binary feature matrix as a character grid (row ``y`` per line)."""
    feat = np.asarray(feature, dtype=bool)
    if feat.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {feat.shape}")
    return "\n".join(
        "".join(on if feat[y, x] else off for x in range(feat.shape[1]))
        for y in range(feat.shape[0])
    )


def render_label_map(feature: np.ndarray, background: str = ".") -> str:
    """Label map: each 4-connected region rendered with its own character.

    Labels are assigned in scan order (the reference labeler's numbering),
    so the output is deterministic.
    """
    labels, count = label_components(np.asarray(feature, dtype=bool))
    h, w = labels.shape
    rows = []
    for y in range(h):
        row = []
        for x in range(w):
            lab = labels[y, x]
            row.append(
                background
                if lab == 0
                else LABEL_CHARS[(lab - 1) % len(LABEL_CHARS)]
            )
        rows.append("".join(row))
    return "\n".join(rows)


def render_band_map(readings: np.ndarray, edges: Sequence[float]) -> str:
    """Iso-band map: each reading band rendered with a distinct character —
    the paper's "visualizing gradients of sensor readings"."""
    data = np.asarray(readings, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"readings must be 2-D, got shape {data.shape}")
    edge_list = list(edges)
    if edge_list != sorted(edge_list):
        raise ValueError("band edges must be ascending")
    bins = np.digitize(data, edge_list, right=False)
    return "\n".join(
        "".join(LABEL_CHARS[int(bins[y, x]) % len(LABEL_CHARS)]
                for x in range(data.shape[1]))
        for y in range(data.shape[0])
    )


def render_deployment(
    network: RealNetwork,
    leaders: Optional[Dict[GridCoord, int]] = None,
    width: int = 64,
) -> str:
    """Terrain-scale scatter of the deployment.

    ``*`` marks ordinary nodes, ``L`` elected leaders, ``+`` cell-grid
    lines; resolution is ``width`` characters across the terrain.
    """
    side = network.cells.terrain.side
    height = max(8, width // 2)
    canvas = [[" "] * width for _ in range(height)]

    # cell boundaries
    per = network.cells.cells_per_side
    for k in range(per + 1):
        gx = min(int(k * width / per), width - 1)
        gy = min(int(k * height / per), height - 1)
        for y in range(height):
            canvas[y][gx] = "|" if canvas[y][gx] == " " else canvas[y][gx]
        for x in range(width):
            canvas[gy][x] = "-" if canvas[gy][x] == " " else canvas[gy][x]

    leader_ids = set(leaders.values()) if leaders else set()
    for nid, node in network.nodes.items():
        x = min(int(node.x / side * width), width - 1)
        y = min(int(node.y / side * height), height - 1)
        canvas[y][x] = "L" if nid in leader_ids else ("*" if node.alive else "x")
    return "\n".join("".join(row) for row in canvas)


def render_group_blocks(groups: HierarchicalGroups, level: int) -> str:
    """The level-``level`` block partition: leaders as ``L``, followers as
    the block's index character."""
    grid = groups.grid
    rows = []
    block_index: Dict[GridCoord, int] = {
        corner: i for i, corner in enumerate(
            groups.block_corner((x, y), level)
            for y in range(0, grid.height, groups.block_side(level))
            for x in range(0, grid.width, groups.block_side(level))
        )
    }
    for y in range(grid.height):
        row = []
        for x in range(grid.width):
            if groups.is_leader((x, y), level):
                row.append("L")
            else:
                idx = block_index[groups.block_corner((x, y), level)]
                row.append(LABEL_CHARS[idx % len(LABEL_CHARS)])
        rows.append("".join(row))
    return "\n".join(rows)


def render_energy_map(
    per_node: Dict[GridCoord, float], side: int, levels: str = " .:-=+*#%@"
) -> str:
    """Heat map of per-virtual-node energy consumption (hot spots show as
    dense characters)."""
    if side <= 0:
        raise ValueError("side must be positive")
    peak = max(per_node.values(), default=0.0)
    rows = []
    for y in range(side):
        row = []
        for x in range(side):
            v = per_node.get((x, y), 0.0)
            idx = 0 if peak == 0 else int(v / peak * (len(levels) - 1))
            row.append(levels[idx])
        rows.append("".join(row))
    return "\n".join(rows)
