"""Property-based tests for the runtime protocols over random deployments.

Every randomly generated deployment that satisfies the Section 5
preconditions must yield: a converged emulation matching the oracle, a
unique optimal leader per cell, and correct end-to-end labeling through
the full physical stack.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import (
    count_regions,
    feature_matrix_aggregation,
    random_feature_matrix,
)
from repro.core import ALL_DIRECTIONS, VirtualArchitecture
from repro.deployment import (
    CellGrid,
    Terrain,
    build_network,
    ensure_coverage,
    uniform_random,
)
from repro.runtime import (
    bind_processes,
    deploy,
    emulate_topology,
    oracle_binding,
)

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_deployment(seed: int, side: int = 4, n: int = 90, range_cells: float = 2.3):
    terrain = Terrain(100.0)
    cells = CellGrid(terrain, side)
    rng = np.random.default_rng(seed)
    positions = ensure_coverage(uniform_random(n, terrain, rng), cells, rng)
    return build_network(positions, cells, tx_range=cells.cell_side * range_cells)


class TestEmulationProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_converged_tables_match_oracle(self, seed):
        net = random_deployment(seed)
        if net.validate_protocol_preconditions():
            return  # precondition violated: out of protocol scope
        result = emulate_topology(net)
        assert result.topology.verify() == []

    @given(st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_table_entries_local(self, seed):
        # property (ii): entries only point within the cell or one cell over
        net = random_deployment(seed)
        if net.validate_protocol_preconditions():
            return
        result = emulate_topology(net)
        for nid, table in result.topology.tables.items():
            cell = net.cell_of(nid)
            for d, entry in zip(ALL_DIRECTIONS, table):
                if entry is not None:
                    assert net.cell_of(entry) in (cell, d.step(cell))


class TestBindingProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_unique_optimal_leader(self, seed):
        net = random_deployment(seed)
        if net.validate_protocol_preconditions():
            return
        result = bind_processes(net)
        assert result.binding.leaders == oracle_binding(net)

    @given(st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_gradients_reach_leader(self, seed):
        net = random_deployment(seed)
        if net.validate_protocol_preconditions():
            return
        result = bind_processes(net)
        for nid in net.node_ids():
            path = result.binding.path_to_leader(nid)
            assert result.binding.is_leader(path[-1])


class TestFullStackProperties:
    @given(
        st.integers(min_value=0, max_value=1_000),
        st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(
        max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_deployed_labeling_correct(self, seed, density):
        net = random_deployment(seed)
        if net.validate_protocol_preconditions():
            return
        stack = deploy(net)
        feat = random_feature_matrix(4, density, rng=seed)
        va = VirtualArchitecture(4)
        run = stack.run_application(va.synthesize(feature_matrix_aggregation(feat)))
        assert run.root_payload.total_regions() == count_regions(feat)
        assert run.drops == 0
