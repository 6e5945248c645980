"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    HierarchicalGroups,
    OrientedGrid,
    UniformCostModel,
    VirtualArchitecture,
)
from repro.deployment import (
    CellGrid,
    Terrain,
    build_network,
    ensure_coverage,
    uniform_random,
)
from repro.runtime.routing import TransportProcess


@pytest.fixture
def grid4() -> OrientedGrid:
    """The paper's 4x4 example grid."""
    return OrientedGrid(4)


@pytest.fixture
def grid8() -> OrientedGrid:
    return OrientedGrid(8)


@pytest.fixture
def groups4(grid4) -> HierarchicalGroups:
    return HierarchicalGroups(grid4)


@pytest.fixture
def va4() -> VirtualArchitecture:
    return VirtualArchitecture(4)


@pytest.fixture
def va8() -> VirtualArchitecture:
    return VirtualArchitecture(8)


@pytest.fixture
def uniform_cost() -> UniformCostModel:
    return UniformCostModel()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def make_deployment(
    side: int = 4,
    n_random: int = 60,
    terrain_side: float = 100.0,
    range_cells: float = 2.3,
    seed: int = 7,
):
    """A covered, connected deployment over a ``side x side`` cell grid.

    ``range_cells`` is the transmission range in cell-side multiples;
    values >= sqrt(5) guarantee single-hop cell adjacency, smaller values
    exercise the multi-hop discovery path.
    """
    terrain = Terrain(terrain_side)
    cells = CellGrid(terrain, side)
    r = np.random.default_rng(seed)
    positions = ensure_coverage(uniform_random(n_random, terrain, r), cells, r)
    return build_network(positions, cells, tx_range=cells.cell_side * range_cells)


class RecordingTransport(TransportProcess):
    """A transport that logs what reaches its two hooks into lists shared
    by every process built with them: ``delivered`` gets ``(node,
    envelope)`` per delivery and ``dropped`` ``(node, envelope, reason)``
    per drop (also counted in ``drops``, as by the base transport)."""

    __slots__ = ("delivered", "dropped")

    def __init__(self, delivered: list, dropped: list, *args, **kwargs):
        self.delivered = delivered
        self.dropped = dropped
        super().__init__(*args, **kwargs)

    def _deliver(self, envelope) -> None:
        self.delivered.append((self.node_id, envelope))

    def _drop(self, envelope, reason: str) -> None:
        super()._drop(envelope, reason)
        self.dropped.append((self.node_id, envelope, reason))


@pytest.fixture
def deployment4():
    """Standard 4x4-cell deployment with comfortable radio range."""
    net = make_deployment(side=4)
    assert net.validate_protocol_preconditions() == []
    return net


@pytest.fixture
def dense_deployment8():
    """Denser 8x8-cell deployment for integration tests."""
    net = make_deployment(side=8, n_random=400, seed=11)
    assert net.validate_protocol_preconditions() == []
    return net
