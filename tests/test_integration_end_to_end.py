"""Integration tests: the full Figure 1 design flow, top to bottom.

Walks the paper's methodology end to end — application → task graph →
mapping → synthesis → design-time execution → deployment → runtime
protocols → physical execution — and cross-checks every stage against the
others (the paper's core promise: *"theoretical performance analysis
corresponds to real performance measurements"*).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (
    GaussianBlobField,
    TopographicQueryApp,
    compare_designs,
    count_regions,
    feature_matrix_aggregation,
    random_feature_matrix,
)
from repro.core import (
    CountAggregation,
    VirtualArchitecture,
    build_quadtree,
    check_all_constraints,
    recursive_quadrant_mapping,
)
from repro.core.analysis import estimate_quadtree
from repro.deployment import covered_deployment
from repro.runtime import deploy, trace_route

from conftest import make_deployment


class TestDesignFlow:
    """One full pass of Figure 1 on an 8x8 problem."""

    side = 8
    field = GaussianBlobField(
        [(0.25, 0.3, 0.12, 1.0), (0.7, 0.65, 0.1, 0.9), (0.8, 0.2, 0.05, 1.2)]
    )

    @pytest.fixture(scope="class")
    def va(self):
        return VirtualArchitecture(self.side)

    @pytest.fixture(scope="class")
    def app(self, va):
        return TopographicQueryApp(va, self.field, threshold=0.5)

    def test_stage1_application_model(self, va):
        tg = build_quadtree(va.grid)
        tg.validate()
        assert tg.arity() == 4

    def test_stage2_mapping_constraints(self, va):
        tg = build_quadtree(va.grid)
        mapping = recursive_quadrant_mapping(tg, va.groups)
        check_all_constraints(mapping)

    def test_stage3_analysis_brackets_execution(self, va, app):
        # unit-size estimate is a lower bound for the data-dependent run;
        # the paper's step count is exactly the unit-message latency
        est = estimate_quadtree(self.side)
        result = va.execute(app.aggregation, charge_compute=False)
        assert result.latency >= est.latency_steps
        assert result.ledger.total >= 0

    def test_stage4_design_time_execution(self, app):
        report = app.run_virtual()
        assert report.correct

    def test_stage5_deployment_and_physical_run(self, app):
        net = make_deployment(side=self.side, n_random=400, seed=11)
        stack = deploy(net)
        run = stack.run_application(app.synthesize())
        assert run.root_payload.total_regions() == app.run_virtual().regions
        assert run.drops == 0

    def test_stage6_design_vs_deployed_results_identical(self, app):
        # the exfiltrated summary must be bit-identical across backends
        va_result = app.architecture.execute(app.aggregation)
        net = make_deployment(side=self.side, n_random=400, seed=11)
        stack = deploy(net)
        deployed = stack.run_application(app.synthesize())
        assert deployed.root_payload == va_result.root_payload


class TestVirtualVsDeployedCosts:
    def test_virtual_message_count_equals_deployed_envelopes(self):
        # every logical mGraph send appears exactly once in both backends
        side = 4
        net = make_deployment(side=side, seed=7)
        stack = deploy(net)
        va = VirtualArchitecture(side)
        agg = CountAggregation(lambda c: True)
        virtual = va.execute(agg)
        deployed = stack.run_application(va.synthesize(agg))
        assert deployed.delivered_envelopes == virtual.messages

    def test_deployed_latency_scales_with_virtual(self):
        side = 4
        net = make_deployment(side=side, seed=7)
        stack = deploy(net)
        va = VirtualArchitecture(side)
        agg = CountAggregation(lambda c: True)
        virtual = va.execute(agg, charge_compute=False)
        deployed = stack.run_application(va.synthesize(agg))
        # physical forwarding can only add hops
        assert deployed.latency >= virtual.latency

    @pytest.mark.parametrize("side", [4, 8])
    @pytest.mark.parametrize("per_cell", [2, 7])
    @pytest.mark.parametrize("reliable", [False, True])
    def test_trace_route_predicts_round_transmissions(self, side, per_cell, reliable):
        """A lossless count round transmits exactly the hops of the
        quad-tree's child-to-parent routes over the emulated tables, so
        the deployed cost is predictable without running the round.  With
        reliable ARQ every forward gets exactly one ack, so the count
        doubles and the ack energy equals the forward energy."""
        stack = deploy(covered_deployment(side, per_cell * side * side, 11))
        spec = VirtualArchitecture(side).synthesize(CountAggregation(lambda c: True))
        groups = spec.groups
        predicted = sum(
            len(trace_route(stack.topology, stack.binding, child, parent)) - 1
            for level in range(1, groups.max_level + 1)
            for parent in groups.leaders_at(level)
            for child in groups.child_leaders(parent, level)
            if child != parent
        )
        run = stack.run_application(spec, reliable=reliable)
        assert run.root_payload == side * side
        assert run.transmissions == (2 if reliable else 1) * predicted
        energy = run.ledger.by_category()
        assert energy.get("tx:transport-ack", 0.0) == (
            energy["tx:transport"] if reliable else 0.0
        )


class TestDesignComparisonShape:
    """Experiment E2's qualitative shape, asserted as an invariant."""

    @pytest.mark.parametrize("side", [4, 8, 16])
    def test_dnc_wins_energy_at_all_sizes(self, side):
        feat = random_feature_matrix(side, 0.4, rng=1)
        row = compare_designs(feat)
        assert row["energy_winner"] == "divide-and-conquer"

    def test_energy_advantage_grows_with_n(self):
        ratios = []
        for side in (4, 8, 16, 32):
            feat = random_feature_matrix(side, 0.4, rng=1)
            ratios.append(compare_designs(feat)["energy_ratio"])
        assert ratios == sorted(ratios)

    def test_hotspot_advantage(self):
        feat = random_feature_matrix(16, 0.4, rng=2)
        row = compare_designs(feat)
        assert row["dnc_max_node"] < row["central_max_node"]


class TestScalingClaim:
    """Section 4.1: O(sqrt(N)) steps."""

    def test_unit_steps_linear_in_side(self):
        va_latencies = []
        for side in (4, 8, 16, 32):
            va = VirtualArchitecture(side)
            result = va.execute(CountAggregation(lambda c: True), charge_compute=False)
            va_latencies.append(result.latency)
        # latency = 2(side - 1): exactly linear in sqrt(N)
        assert va_latencies == [6.0, 14.0, 30.0, 62.0]

    def test_scaling_exponent_half(self):
        import math

        sides = [4, 8, 16, 32, 64]
        latencies = []
        for side in sides:
            va = VirtualArchitecture(side)
            r = va.execute(CountAggregation(lambda c: True), charge_compute=False)
            latencies.append(r.latency)
        # fit log(latency) vs log(N): slope should be ~0.5
        xs = [math.log(s * s) for s in sides]
        ys = [math.log(l) for l in latencies]
        n = len(xs)
        slope = (n * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys)) / (
            n * sum(x * x for x in xs) - sum(xs) ** 2
        )
        assert slope == pytest.approx(0.5, abs=0.05)


class TestRobustnessUnderLoss:
    def test_moderate_loss_usually_completes_with_retries_off(self):
        # the paper's asynchronous model tolerates reordering but not loss;
        # this test documents the failure mode: with loss the round may
        # stall, never mislabel.
        net = make_deployment(side=4, seed=3)
        stack = deploy(net)
        va = VirtualArchitecture(4)
        feat = random_feature_matrix(4, 0.5, rng=4)
        completed_correct = 0
        attempts = 5
        for i in range(attempts):
            run = stack.run_application(
                va.synthesize(feature_matrix_aggregation(feat)),
                loss_rate=0.05,
                rng=np.random.default_rng(i),
            )
            if run.exfiltrated:
                assert run.root_payload.total_regions() == count_regions(feat)
                completed_correct += 1
        assert completed_correct >= 1
