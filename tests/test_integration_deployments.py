"""Integration: the full stack across deployment patterns.

The paper targets "arbitrarily deployed" networks; the protocols must not
care *how* the nodes landed.  Runs the complete pipeline (preconditions →
emulation → binding → synthesized application → correctness) over every
placement generator in the library.
"""

from __future__ import annotations

import pytest

from repro.apps import (
    count_regions,
    feature_matrix_aggregation,
    random_feature_matrix,
)
from repro.core import VirtualArchitecture
from repro.deployment import (
    CellGrid,
    Terrain,
    build_network,
    clustered,
    ensure_coverage,
    one_per_cell,
    perturbed_grid,
    poisson_disk,
    uniform_random,
)
from repro.runtime import deploy

SIDE = 4
TERRAIN = Terrain(100.0)
CELLS = CellGrid(TERRAIN, SIDE)


def _deploy(positions, range_cells=2.3, rng=None):
    positions = ensure_coverage(positions, CELLS, rng or 0)
    net = build_network(positions, CELLS, tx_range=CELLS.cell_side * range_cells)
    assert net.validate_protocol_preconditions() == []
    return net


DEPLOYMENTS = {
    "uniform": lambda: _deploy(uniform_random(90, TERRAIN, 1), rng=1),
    "perturbed-grid": lambda: _deploy(
        perturbed_grid(10, TERRAIN, jitter_fraction=0.3, rng=2), rng=2
    ),
    "poisson-disk": lambda: _deploy(
        poisson_disk(TERRAIN, min_separation=8.0, rng=3), rng=3
    ),
    "clustered": lambda: _deploy(
        clustered(6, 20, TERRAIN, cluster_spread=12.0, rng=4), rng=4
    ),
    "one-per-cell": lambda: _deploy(one_per_cell(CELLS, rng=5), rng=5),
}


class TestAllDeploymentPatterns:
    @pytest.mark.parametrize("name", list(DEPLOYMENTS))
    def test_full_pipeline(self, name):
        net = DEPLOYMENTS[name]()
        stack = deploy(net)
        assert stack.topology.verify() == []
        assert stack.binding.verify() == []

        feat = random_feature_matrix(SIDE, 0.5, rng=7)
        va = VirtualArchitecture(SIDE)
        run = stack.run_application(
            va.synthesize(feature_matrix_aggregation(feat))
        )
        assert run.root_payload.total_regions() == count_regions(feat)
        assert run.drops == 0

    @pytest.mark.parametrize("name", list(DEPLOYMENTS))
    def test_setup_cost_recorded(self, name):
        net = DEPLOYMENTS[name]()
        stack = deploy(net)
        assert stack.setup.total_messages > 0
        assert stack.setup.total_energy > 0

    def test_minimal_deployment_one_node_per_cell(self):
        # the extreme sparse case: each cell's single node is its own
        # leader, and all routing is cell-to-cell direct
        net = DEPLOYMENTS["one-per-cell"]()
        stack = deploy(net)
        for cell in net.cells.cells():
            members = net.members_of_cell(cell)
            assert len(members) == 1
            assert stack.binding.leader_of(cell) == members[0]
