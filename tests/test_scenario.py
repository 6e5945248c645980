"""Tests for the pluggable scenario models (repro.scenario, DESIGN.md §14).

Unit tests pin the declarative models' determinism, validation, and dict
round-trips; integration tests pin the subsystem's reproducibility
contract — identical fingerprints for a seeded scenario with the wire
codec on and off, on a fresh stack and over re-armed rounds, and across
serial and sharded-sweep execution.
"""

from __future__ import annotations

import functools
import json

import numpy as np
import pytest

from repro.core import CountAggregation, VirtualArchitecture
from repro.deployment import (
    CellGrid,
    Terrain,
    build_network,
    ensure_coverage,
    uniform_random,
)
from repro.runtime import deploy
from repro.runtime.faults import FaultEvent, FaultPlan
from repro.scenario import (
    Attacker,
    LogNormalShadowing,
    MobilityModel,
    Move,
    PerPairFading,
    Scenario,
    SourcePeriodModel,
    UnitDisk,
    link_model_from_dict,
    plan_cell_hops,
)
from repro.scenario.link import stable_unit

SIDE = 4
SEED = 17


def make_network(seed: int = SEED, side: int = SIDE, n_random: int = 140):
    terrain = Terrain(100.0)
    cells = CellGrid(terrain, side)
    rng = np.random.default_rng(seed)
    positions = ensure_coverage(uniform_random(n_random, terrain, rng), cells, rng)
    return build_network(positions, cells, tx_range=cells.cell_side * 2.3)


def run_rounds(scenario, wire: bool = False, plan=None, seed: int = SEED, rounds: int = 1):
    """``rounds`` consecutive seeded rounds on one fresh stack."""
    stack = deploy(make_network(seed))
    spec = VirtualArchitecture(SIDE).synthesize(CountAggregation(lambda c: True))
    return [
        stack.run_application(
            spec,
            rng=np.random.default_rng(seed + 1),
            reliable=True,
            max_retries=8,
            wire_format=wire,
            fault_plan=plan,
            scenario=scenario,
        )
        for _ in range(rounds)
    ]


def run_round(scenario, wire: bool = False, plan=None, seed: int = SEED):
    """One seeded round on a fresh stack."""
    return run_rounds(scenario, wire=wire, plan=plan, seed=seed)[0]


#: A leader kill inside the full scenario's round.
KILL_PLAN = FaultPlan(events=(FaultEvent(time=0.7, action="kill_leader", cell=(1, 1)),))


def full_scenario(seed: int = SEED) -> Scenario:
    net = make_network(seed)
    cells = [(x, y) for x in range(SIDE) for y in range(SIDE)]
    return Scenario(
        link=LogNormalShadowing(sigma=3.0, seed=seed),
        mobility=plan_cell_hops(
            sorted(net.node_ids()), cells, hops=3, at=0.6, spacing=0.1, seed=seed
        ),
        attacker=Attacker(start_cell=(0, 0), source_cells=((SIDE - 1, SIDE - 1),)),
        sources=SourcePeriodModel(
            cells=((SIDE - 1, SIDE - 1),), period=1.0, first=0.4, count=2,
            dst_cell=(0, 0),
        ),
    )


#: Fingerprints of four consecutive full-scenario rounds on one stack.
#: Later rounds start from drained batteries, the killed leader and the
#: moved nodes, so each round's digest differs from the last.
FULL_ROUNDS = ("14ff35dda1f6bb15", "65a6f539f1f0f31f", "ef1eb48cc7185257", "3ad4eeb97ca18830")


@functools.cache
def full_rounds(rounds: int, wire: bool):
    """``rounds`` full-scenario rounds on one stack (seed-pure, so the
    tests share them)."""
    return tuple(run_rounds(full_scenario(), wire=wire, plan=KILL_PLAN, rounds=rounds))


def serial_full_round(wire: bool):
    """The reference run of the full scenario."""
    return full_rounds(1, wire)[0]


class TestStableUnit:
    def test_deterministic_and_in_range(self):
        draws = [stable_unit(3, 1, 2, n) for n in range(1000)]
        assert draws == [stable_unit(3, 1, 2, n) for n in range(1000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        # roughly uniform: the mean of 1000 draws sits near 0.5
        assert 0.4 < sum(draws) / len(draws) < 0.6

    def test_distinct_inputs_decorrelate(self):
        assert stable_unit(1, 2, 3) != stable_unit(1, 2, 4)
        assert stable_unit(0) != stable_unit(1)


class TestLinkModels:
    def test_unit_disk_builds_no_gate(self):
        assert UnitDisk().build_gate(make_network()) is None

    def test_gate_admission_is_counter_deterministic(self):
        net = make_network()
        model = LogNormalShadowing(sigma=4.0, seed=5)
        a, b = model.build_gate(net), model.build_gate(net)
        u = net.node_ids()[0]
        v = net.neighbors(u)[0]
        verdicts = [a.admit(u, v) for _ in range(200)]
        assert verdicts == [b.admit(u, v) for _ in range(200)]
        assert a.faded == b.faded

    def test_shadowing_is_asymmetric(self):
        net = make_network()
        gate = LogNormalShadowing(sigma=6.0, softness=1.0, seed=2).build_gate(net)
        probs_fwd = []
        probs_rev = []
        for u in net.node_ids()[:40]:
            for v in net.neighbors(u):
                probs_fwd.append(gate._prob_fn(u, v))
                probs_rev.append(gate._prob_fn(v, u))
        assert probs_fwd != probs_rev  # directed draws differ somewhere

    def test_per_pair_fading_probability_shape(self):
        net = make_network()
        gate = PerPairFading(depth=1.0, seed=0).build_gate(net)
        u = net.node_ids()[0]
        for v in net.neighbors(u):
            assert 0.0 <= gate._prob_fn(u, v) <= 1.0

    def test_dict_round_trip(self):
        for model in (
            UnitDisk(),
            LogNormalShadowing(sigma=2.5, path_loss_exponent=3.0, seed=9),
            PerPairFading(depth=0.25, seed=4),
        ):
            clone = link_model_from_dict(json.loads(json.dumps(model.to_dict())))
            assert clone == model
            assert clone.fingerprint() == model.fingerprint()

    def test_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            LogNormalShadowing(sigma=-0.1)
        with pytest.raises(ValueError, match="path_loss_exponent"):
            LogNormalShadowing(path_loss_exponent=0.0)
        with pytest.raises(ValueError, match="depth"):
            PerPairFading(depth=-0.5)
        with pytest.raises(ValueError, match="unknown link model"):
            link_model_from_dict({"kind": "string-and-cans"})


class TestMobilityModel:
    def test_moves_sort_and_round_trip(self):
        model = MobilityModel(
            moves=(
                Move(time=2.0, node=5, cell=(1, 1)),
                Move(time=1.0, node=9, position=(3.0, 4.0)),
            )
        )
        assert [m.time for m in model.moves] == [1.0, 2.0]
        clone = MobilityModel.from_dicts(json.loads(json.dumps(model.to_dicts())))
        assert clone == model
        assert clone.fingerprint() == model.fingerprint()

    def test_plan_cell_hops_is_seed_pure(self):
        nodes, cells = range(50), [(0, 0), (1, 1), (2, 2)]
        a = plan_cell_hops(nodes, cells, hops=7, seed=3)
        assert a == plan_cell_hops(nodes, cells, hops=7, seed=3)
        assert a != plan_cell_hops(nodes, cells, hops=7, seed=4)
        assert len({m.node for m in a.moves}) == 7  # distinct movers

    def test_validation(self):
        with pytest.raises(ValueError, match="cell= or position="):
            Move(time=1.0, node=0)
        with pytest.raises(ValueError, match="hops"):
            plan_cell_hops(range(10), [(0, 0)], hops=0)
        with pytest.raises(ValueError, match="distinct nodes"):
            plan_cell_hops(range(3), [(0, 0)], hops=5)

    def test_move_node_rewrites_topology(self):
        net = make_network()
        cells = net.cells
        nid = net.node_ids()[0]
        old_cell = net.cell_of(nid)
        target = (SIDE - 1, SIDE - 1) if old_cell != (SIDE - 1, SIDE - 1) else (0, 0)
        gen = net.liveness_generation
        returned_old, new_cell = net.move_node(nid, cells.center(target))
        assert (returned_old, new_cell) == (old_cell, target)
        assert net.cell_of(nid) == target
        assert nid in net.members_of_cell(target)
        assert nid not in net.members_of_cell(old_cell)
        assert net.liveness_generation > gen
        # adjacency is symmetric after the rewrite
        for nbr in net.neighbors(nid, alive_only=False):
            assert nid in net.neighbors(nbr, alive_only=False)


class TestAttackerModel:
    def test_pursuit_walks_reverse_path_and_captures(self):
        net = make_network()
        atk = Attacker(start_cell=(0, 0), source_cells=((1, 1),))
        # synthetic tap: 7 -> 5 -> 3 chain of transmissions toward node 3
        deliveries = [(1.0, 5, 3), (2.0, 7, 5)]
        out = atk.pursue(deliveries, start_node=3, source_nodes=[7], network=net)
        assert out.captured and out.capture_time == 2.0 and out.moves == 2
        assert out.final_node == 7 and out.distance == 0.0

    def test_cooldown_skips_deliveries(self):
        net = make_network()
        atk = Attacker(start_cell=(0, 0), source_cells=((1, 1),), move_cooldown=5.0)
        deliveries = [(1.0, 5, 3), (2.0, 7, 5)]  # second lands inside cooldown
        out = atk.pursue(deliveries, start_node=3, source_nodes=[7], network=net)
        assert not out.captured and out.moves == 1 and out.final_node == 5

    def test_unresolvable_start_yields_null_outcome(self):
        net = make_network()
        atk = Attacker(start_cell=(0, 0), source_cells=((1, 1),))
        out = atk.pursue([], start_node=None, source_nodes=[1], network=net)
        assert out.as_tuple() == (False, -1.0, 0, -1, -1.0)

    def test_dict_round_trip(self):
        atk = Attacker(
            start_cell=(0, 0), source_cells=((3, 3), (1, 2)), move_cooldown=2.0
        )
        clone = Attacker.from_dict(json.loads(json.dumps(atk.to_dict())))
        assert clone == atk and clone.fingerprint() == atk.fingerprint()


class TestSourcePeriodModel:
    def test_events_are_sorted_and_complete(self):
        model = SourcePeriodModel(
            cells=((1, 1), (0, 2)), period=2.0, first=0.5, count=3
        )
        events = list(model.events())
        assert len(events) == 6
        assert events == sorted(events)
        assert {cell for _, cell, _ in events} == {(1, 1), (0, 2)}

    def test_dict_round_trip(self):
        model = SourcePeriodModel(cells=((2, 2),), period=1.5, count=4)
        clone = SourcePeriodModel.from_dict(json.loads(json.dumps(model.to_dict())))
        assert clone == model and clone.fingerprint() == model.fingerprint()


class TestScenarioSpec:
    def test_trivial_detection(self):
        assert Scenario().is_trivial()
        assert Scenario(link=UnitDisk()).is_trivial()
        assert not Scenario(link=PerPairFading()).is_trivial()
        assert not Scenario(
            mobility=MobilityModel((Move(time=1.0, node=0, cell=(0, 0)),))
        ).is_trivial()

    def test_coerce(self):
        scn = Scenario(link=PerPairFading(depth=0.3))
        assert Scenario.coerce(None) is None
        assert Scenario.coerce(scn) is scn
        assert Scenario.coerce(scn.to_dict()) == scn
        with pytest.raises(TypeError):
            Scenario.coerce("shadowing")

    def test_full_round_trip_preserves_fingerprint(self):
        scn = full_scenario()
        clone = Scenario.from_dict(json.loads(json.dumps(scn.to_dict())))
        assert clone.fingerprint() == scn.fingerprint()

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: PerPairFading(depth=1.5), "depth"),
            (lambda: Move(time=-1.0, node=0, cell=(0, 0)), "move time"),
            (lambda: SourcePeriodModel(cells=(), period=1.0), "source cell"),
            (lambda: Attacker(start_cell=(0, 0), source_cells=()), "source cell"),
        ],
        ids=["fading-depth", "move-time", "no-source-cells", "attacker-sources"],
    )
    def test_malformed_models_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()


class TestScenarioRuns:
    def test_unit_disk_is_byte_identical_to_no_scenario(self):
        base = run_round(None)
        named = run_round(Scenario(link=UnitDisk()))
        assert named.fingerprint() == base.fingerprint()
        assert named.scenario_report is None

    @pytest.mark.parametrize(
        "model",
        [LogNormalShadowing(sigma=3.0, seed=7), PerPairFading(depth=0.7, seed=7)],
        ids=["shadowing", "fading"],
    )
    def test_link_models_rerun_identically_and_fade(self, model):
        first = run_round(Scenario(link=model))
        again = run_round(Scenario(link=model))
        assert first.fingerprint() == again.fingerprint()
        assert first.scenario_report.link_faded > 0
        assert first.fingerprint() != run_round(None).fingerprint()

    @pytest.mark.parametrize("rounds", [1, 4])
    @pytest.mark.parametrize("wire", [False, True], ids=["pickle", "wire"])
    def test_full_scenario_is_execution_mode_invariant(self, rounds, wire):
        """Every frame through the wire codec or none, on a fresh stack or
        one that re-arms its processes round after round: the same rounds."""
        runs = full_rounds(rounds, wire)
        assert tuple(r.fingerprint() for r in runs) == FULL_ROUNDS[:rounds]
        assert [r.scenario_report.attacker.as_tuple() for r in runs] == [
            r.scenario_report.attacker.as_tuple() for r in full_rounds(rounds, False)
        ]

    def test_dict_form_drives_the_identical_run(self):
        as_dict = json.loads(json.dumps(full_scenario().to_dict()))
        assert (
            run_round(as_dict, plan=KILL_PLAN).fingerprint()
            == serial_full_round(False).fingerprint()
        )

    def test_report_accounting(self):
        scn = full_scenario()
        result = run_round(scn)
        rep = result.scenario_report
        assert len(rep.relocations) == len(scn.mobility.moves)
        assert rep.source_emissions + rep.source_skipped == 2
        assert rep.source_emissions >= 1
        assert rep.attacker is not None
        metrics = rep.metrics()
        for key in ("relocations", "link_faded", "attacker_moves"):
            assert key in metrics


class TestScenarioSweepAxis:
    def test_e1_scenario_axis_serial_matches_sharded(self):
        from repro.sweep import SweepSpec, run_sweep

        scn_dict = full_scenario().to_dict()
        spec = SweepSpec(
            name="scenario-axis",
            workload="e1",
            grid={"scenario": [None, scn_dict]},
            fixed={"side": SIDE, "n_random": 140},
        )
        serial = run_sweep(spec, workers=1)
        sharded = run_sweep(spec, workers=2, timeout_s=600, retries=1)
        assert all(r["status"] == "ok" for r in serial + sharded)
        assert {r["run_id"]: r["fingerprint"] for r in sharded} == {
            r["run_id"]: r["fingerprint"] for r in serial
        }
        with_scn = [r for r in serial if r["params"]["scenario"] is not None]
        assert with_scn and "attacker_moves" in with_scn[0]["metrics"]
