"""Unit tests for sensor nodes and deployment generators."""

from __future__ import annotations

import math

import pytest

from repro.deployment.node import NodeDeadError, SensorNode
from repro.deployment.placement import (
    clustered,
    density_per_cell,
    ensure_coverage,
    one_per_cell,
    perturbed_grid,
    poisson_disk,
    uniform_random,
)
from repro.deployment.terrain import CellGrid, Terrain


class TestSensorNode:
    def test_construction(self):
        n = SensorNode(0, (1.0, 2.0), tx_range=5.0)
        assert n.x == 1.0 and n.y == 2.0
        assert n.alive
        assert n.residual_energy == n.initial_energy

    def test_validation(self):
        with pytest.raises(ValueError):
            SensorNode(-1, (0, 0), tx_range=1.0)
        with pytest.raises(ValueError):
            SensorNode(0, (0, 0), tx_range=0.0)
        with pytest.raises(ValueError):
            SensorNode(0, (0, 0), tx_range=1.0, initial_energy=0.0)

    def test_draw_accumulates(self):
        n = SensorNode(0, (0, 0), tx_range=1.0, initial_energy=10.0)
        n.draw(3.0)
        n.draw(2.0)
        assert n.consumed_energy == 5.0
        assert n.residual_energy == 5.0

    def test_depletion_kills(self):
        n = SensorNode(0, (0, 0), tx_range=1.0, initial_energy=5.0)
        n.draw(5.0)
        assert not n.alive
        assert n.residual_energy == 0.0

    def test_draw_from_dead_raises(self):
        n = SensorNode(0, (0, 0), tx_range=1.0, initial_energy=1.0)
        n.kill()
        with pytest.raises(NodeDeadError):
            n.draw(0.1)

    def test_draw_rejects_negative(self):
        n = SensorNode(0, (0, 0), tx_range=1.0)
        with pytest.raises(ValueError):
            n.draw(-1.0)

    def test_revive(self):
        n = SensorNode(0, (0, 0), tx_range=1.0, initial_energy=5.0)
        n.draw(5.0)
        n.revive(energy=20.0)
        assert n.alive
        assert n.residual_energy == 20.0

    def test_revive_rejects_nonpositive_energy(self):
        n = SensorNode(0, (0, 0), tx_range=1.0)
        with pytest.raises(ValueError):
            n.revive(energy=0.0)


class TestGenerators:
    terrain = Terrain(100.0)

    def test_uniform_random_count_and_bounds(self):
        pts = uniform_random(200, self.terrain, rng=1)
        assert len(pts) == 200
        assert all(self.terrain.contains(p) for p in pts)

    def test_uniform_random_seeded(self):
        assert uniform_random(10, self.terrain, rng=5) == uniform_random(
            10, self.terrain, rng=5
        )

    def test_uniform_random_zero(self):
        assert uniform_random(0, self.terrain, rng=1) == []

    def test_uniform_random_rejects_negative(self):
        with pytest.raises(ValueError):
            uniform_random(-1, self.terrain, rng=1)

    def test_perturbed_grid(self):
        pts = perturbed_grid(5, self.terrain, jitter_fraction=0.1, rng=2)
        assert len(pts) == 25
        assert all(self.terrain.contains(p) for p in pts)

    def test_perturbed_grid_zero_jitter_is_lattice(self):
        pts = perturbed_grid(4, self.terrain, jitter_fraction=0.0, rng=2)
        assert pts[0] == (12.5, 12.5)
        assert pts[-1] == (87.5, 87.5)

    def test_poisson_disk_separation(self):
        pts = poisson_disk(self.terrain, min_separation=15.0, rng=3)
        assert len(pts) > 5
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                assert math.hypot(a[0] - b[0], a[1] - b[1]) >= 15.0 - 1e-9

    def test_poisson_disk_rejects_bad_separation(self):
        with pytest.raises(ValueError):
            poisson_disk(self.terrain, min_separation=0.0, rng=1)

    def test_clustered_counts(self):
        pts = clustered(3, 10, self.terrain, cluster_spread=5.0, rng=4)
        assert len(pts) == 30
        assert all(self.terrain.contains(p) for p in pts)

    def test_clustered_rejects_bad_params(self):
        with pytest.raises(ValueError):
            clustered(0, 5, self.terrain, cluster_spread=1.0)
        with pytest.raises(ValueError):
            clustered(2, 5, self.terrain, cluster_spread=0.0)


class TestCoverage:
    terrain = Terrain(100.0)
    cells = CellGrid(terrain, 4)

    def test_one_per_cell(self):
        pts = one_per_cell(self.cells, rng=1)
        assert len(pts) == 16
        counts = density_per_cell(pts, self.cells)
        assert all(c == 1 for c in counts)

    def test_ensure_coverage_fills_empty_cells(self):
        sparse = [(1.0, 1.0)]  # only cell (0, 0) covered
        full = ensure_coverage(sparse, self.cells, rng=1)
        assert len(full) == 1 + 15
        counts = density_per_cell(full, self.cells)
        assert all(c >= 1 for c in counts)

    def test_ensure_coverage_keeps_existing(self):
        pts = one_per_cell(self.cells, rng=1)
        out = ensure_coverage(pts, self.cells, rng=2)
        assert out == list(pts)  # nothing added

    def test_ensure_coverage_patch_stays_in_cell(self):
        full = ensure_coverage([], self.cells, rng=3)
        for p, cell in zip(full, self.cells.cells()):
            assert self.cells.cell_of(p) == cell

    def test_density_per_cell_total(self):
        pts = uniform_random(100, self.terrain, rng=9)
        counts = density_per_cell(pts, self.cells)
        assert sum(counts) == 100


class TestPunchHole:
    terrain = Terrain(100.0)
    cells = CellGrid(terrain, 4)

    def test_hole_empties_cells(self):
        from repro.deployment.placement import punch_hole

        pts = one_per_cell(self.cells, rng=1)
        out = punch_hole(pts, self.cells, [(1, 1), (2, 2)])
        counts = density_per_cell(out, self.cells)
        by_cell = dict(zip(self.cells.cells(), counts))
        assert by_cell[(1, 1)] == 0 and by_cell[(2, 2)] == 0
        assert sum(counts) == 14

    def test_hole_breaks_preconditions(self):
        from repro.deployment import build_network
        from repro.deployment.placement import punch_hole

        pts = punch_hole(one_per_cell(self.cells, rng=1), self.cells, [(0, 0)])
        net = build_network(pts, self.cells, tx_range=60.0)
        problems = net.validate_protocol_preconditions()
        assert any("cells" in p for p in problems)

    def test_deploy_refuses_holed_network(self):
        from repro.deployment import build_network
        from repro.deployment.placement import punch_hole
        from repro.runtime import deploy

        pts = punch_hole(one_per_cell(self.cells, rng=1), self.cells, [(3, 3)])
        net = build_network(pts, self.cells, tx_range=60.0)
        with pytest.raises(RuntimeError, match="preconditions"):
            deploy(net)

    def test_invalid_hole_cell(self):
        from repro.deployment.placement import punch_hole

        with pytest.raises(ValueError):
            punch_hole([], self.cells, [(9, 9)])
