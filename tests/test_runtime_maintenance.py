"""Unit tests for runtime maintenance: churn, recovery, leader rotation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import CountAggregation, VirtualArchitecture
from repro.deployment import covered_deployment
from repro.runtime import (
    deploy,
    kill_leaders,
    kill_random_nodes,
    recover,
    residual_energy_metric,
    rotate_leaders,
)
from repro.sweep import SweepSpec, run_sweep

from conftest import make_deployment


class TestFailureInjection:
    def test_kill_random_fraction(self):
        net = make_deployment(side=4, n_random=200, seed=3)
        n_alive = len(net.alive_ids())
        killed = kill_random_nodes(net, 0.25, rng=1)
        assert len(killed) == math.floor(0.25 * n_alive + 0.5)
        assert all(not net.node(k).alive for k in killed)

    @pytest.mark.parametrize(
        "fraction,n,expected",
        [
            # round-half-up at every .5 boundary — the seed used round(),
            # whose banker's rounding gave 1.5 -> 2 but 2.5 -> 2
            (0.15, 10, 2),
            (0.25, 10, 3),
            (0.35, 10, 4),
            (0.5, 5, 3),
            (0.0, 10, 0),
            (1.0, 10, 10),
        ],
    )
    def test_kill_count_rounds_half_up(self, fraction, n, expected):
        net = make_deployment(side=4, n_random=200, seed=3)
        spare = net.alive_ids()[n:]  # leave exactly n candidates
        killed = kill_random_nodes(net, fraction, rng=1, spare=spare)
        assert len(killed) == expected

    def test_kill_count_monotonic_in_fraction(self):
        counts = []
        for fraction in np.linspace(0.0, 1.0, 41):
            net = make_deployment(side=4, n_random=200, seed=3)
            spare = net.alive_ids()[10:]
            counts.append(len(kill_random_nodes(net, float(fraction), rng=1,
                                                spare=spare)))
        assert counts == sorted(counts), (
            f"victim count not monotonic in fraction: {counts}"
        )

    def test_kill_respects_spare(self):
        net = make_deployment(side=4, n_random=100, seed=3)
        spare = net.node_ids()[:10]
        killed = kill_random_nodes(net, 1.0, rng=1, spare=spare)
        assert not set(killed) & set(spare)
        assert all(net.node(s).alive for s in spare)

    def test_kill_fraction_validation(self):
        net = make_deployment(side=4)
        with pytest.raises(ValueError):
            kill_random_nodes(net, 1.5)

    def test_kill_leaders(self):
        net = make_deployment(side=4, seed=5)
        stack = deploy(net)
        killed = kill_leaders(net, stack.binding, cells=[(0, 0), (1, 1)])
        assert len(killed) == 2
        assert not net.node(stack.binding.leaders[(0, 0)]).alive

    def test_kill_all_leaders(self):
        net = make_deployment(side=4, seed=5)
        stack = deploy(net)
        killed = kill_leaders(net, stack.binding)
        assert len(killed) == 16


class TestRecovery:
    def test_recover_after_leader_death(self):
        net = make_deployment(side=4, n_random=200, seed=7)
        stack = deploy(net)
        kill_leaders(net, stack.binding, cells=[(2, 2)])
        report = recover(net, previous=stack)
        assert report.recovered
        assert report.reelected_cells >= 1
        new_leader = report.stack.binding.leaders[(2, 2)]
        assert net.node(new_leader).alive

    def test_recovered_stack_runs_application(self):
        net = make_deployment(side=4, n_random=200, seed=7)
        stack = deploy(net)
        kill_leaders(net, stack.binding)
        report = recover(net, previous=stack)
        assert report.recovered
        va = VirtualArchitecture(4)
        run = report.stack.run_application(
            va.synthesize(CountAggregation(lambda c: True))
        )
        assert run.root_payload == 16

    def test_recovery_fails_when_cell_emptied(self):
        net = make_deployment(side=4, n_random=0, seed=7)  # one node per cell
        stack = deploy(net)
        kill_leaders(net, stack.binding, cells=[(3, 3)])
        report = recover(net, previous=stack)
        assert not report.recovered
        assert any("cells" in p for p in report.precondition_problems)
        assert report.stack is None

    def test_recovery_keeps_the_previous_election_metric(self):
        # recovering a rotated stack with nothing killed keeps the
        # residual-energy election instead of undoing the rotation
        net = covered_deployment(4, 150, 3)
        stack = deploy(net)
        assert stack.run_application(
            VirtualArchitecture(4).synthesize(CountAggregation(lambda c: True))
        ).root_payload == 16
        rotated = rotate_leaders(net)
        moved = sum(
            rotated.binding.leaders[cell] != stack.binding.leaders[cell]
            for cell in stack.binding.leaders
        )
        assert moved == 15
        report = recover(net, previous=rotated)
        assert report.recovered
        assert report.stack.binding.metric is residual_energy_metric
        assert report.stack.binding.verify() == []
        assert report.reelected_cells == 1

    def test_recovery_counts_setup_costs(self):
        net = make_deployment(side=4, seed=7)
        report = recover(net)
        assert report.recovered
        assert report.setup_messages > 0
        assert report.setup_energy > 0


class TestLeaderRotation:
    def test_rotation_prefers_full_batteries(self):
        net = make_deployment(side=4, n_random=200, seed=11)
        stack = deploy(net)
        # drain the current leaders heavily
        for leader in stack.binding.leaders.values():
            net.node(leader).draw(1000.0)
        rotated = rotate_leaders(net)
        moved = sum(
            1
            for cell in net.cells.cells()
            if rotated.binding.leaders[cell] != stack.binding.leaders[cell]
        )
        assert moved >= 12  # nearly all cells rotate away from drained nodes

    def test_rotation_balances_drain_over_rounds(self):
        net = make_deployment(side=4, n_random=150, seed=13)
        va = VirtualArchitecture(4)
        stack = deploy(net)
        leaders_seen = {cell: set() for cell in net.cells.cells()}
        for _ in range(3):
            for cell, leader in stack.binding.leaders.items():
                leaders_seen[cell].add(leader)
            run = stack.run_application(
                va.synthesize(CountAggregation(lambda c: True))
            )
            assert run.root_payload == 16
            # emulate heavy leader drain, then rotate
            for leader in stack.binding.leaders.values():
                net.node(leader).draw(500.0)
            stack = rotate_leaders(net)
        multi_leader_cells = [
            cell for cell, seen in leaders_seen.items() if len(seen) > 1
        ]
        assert len(multi_leader_cells) >= 8


class TestChurnUnderSweep:
    """Drive kill_leaders / recover / rotate_leaders through the churn
    workload across a sweep grid, so the maintenance paths are exercised
    with many parameter regimes and independent derived seeds."""

    def sweep(self, grid, fixed=None, replicates=1):
        spec = SweepSpec(
            name="maint",
            workload="churn",
            grid=grid,
            fixed={"side": 4, "n_random": 150, **(fixed or {})},
            replicates=replicates,
        )
        records = run_sweep(spec, workers=1)
        assert all(r["status"] == "ok" for r in records), [
            r["error"] for r in records if r["status"] != "ok"
        ]
        return records

    def test_churn_grid_recovers_and_reelects(self):
        records = self.sweep({"churn": [0.0, 0.25, 0.5, 1.0]})
        by_churn = {r["params"]["churn"]: r["metrics"] for r in records}
        for churn, metrics in by_churn.items():
            assert metrics["killed_leaders"] == round(churn * 16)
            assert metrics["recovered"] == 1.0
            # every emptied leadership slot was re-elected, and the
            # recovered stack still counts all 16 cells
            assert metrics["reelected_cells"] >= metrics["killed_leaders"]
            assert metrics["app_count"] == 16.0
        assert by_churn[1.0]["reelected_cells"] == 16.0

    def test_node_churn_composes_with_leader_churn(self):
        records = self.sweep(
            {"node_churn": [0.0, 0.1, 0.2]}, fixed={"churn": 0.25},
        )
        for r in records:
            metrics = r["metrics"]
            assert metrics["killed_leaders"] == 4.0
            expected_extra = r["params"]["node_churn"] > 0
            assert (metrics["killed_random"] > 0) == expected_extra
            assert metrics["recovered"] == 1.0
            assert metrics["app_count"] == 16.0

    def test_rotation_after_recovery(self):
        records = self.sweep(
            {"rotate": [False, True]}, fixed={"churn": 0.5}, replicates=2,
        )
        for r in records:
            metrics = r["metrics"]
            assert metrics["recovered"] == 1.0
            assert metrics["app_count"] == 16.0
            if r["params"]["rotate"]:
                assert "rotated_cells" in metrics
            else:
                assert "rotated_cells" not in metrics

    def test_unrecoverable_deployment_is_a_measured_outcome(self):
        # one node per cell: killing any leader empties its cell, so
        # recovery must report failure (not raise) and skip the app run
        records = self.sweep(
            {"churn": [0.25, 1.0]}, fixed={"n_random": 0},
        )
        for r in records:
            metrics = r["metrics"]
            assert metrics["recovered"] == 0.0
            assert "app_count" not in metrics

    def test_churn_workload_is_seed_deterministic(self):
        a = self.sweep({"churn": [0.5]}, fixed={"node_churn": 0.1})
        b = self.sweep({"churn": [0.5]}, fixed={"node_churn": 0.1})
        assert [r["fingerprint"] for r in a] == [r["fingerprint"] for r in b]

    def test_churn_rejects_out_of_range_fraction(self):
        spec = SweepSpec(
            name="bad", workload="churn", grid={"churn": [1.5]},
            fixed={"side": 4, "n_random": 150},
        )
        records = run_sweep(spec, workers=1)
        assert records[0]["status"] == "failed"
        assert "churn must be in [0, 1]" in records[0]["error"]
