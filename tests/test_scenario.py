"""Tests for the radio link models (repro.scenario, DESIGN.md §14).

Unit tests pin the declarative models' determinism, validation, and dict
round-trips; integration tests pin the reproducibility contract of a
gated round — identical fingerprints for a seeded link model with the
wire codec on and off, on a fresh stack and over re-armed rounds, and
across serial and sharded-sweep execution.
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
    LinkGate,
    LogNormalShadowing,
    PerPairFading,
    UnitDisk,
    link_model_from_dict,
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


def count_spec():
    return VirtualArchitecture(SIDE).synthesize(CountAggregation(lambda c: True))


def run_rounds(link_model, wire: bool = False, plan=None, seed: int = SEED, rounds: int = 1):
    """``rounds`` consecutive seeded rounds on one fresh stack."""
    stack = deploy(make_network(seed))
    spec = count_spec()
    return [
        stack.run_application(
            spec,
            rng=np.random.default_rng(seed + 1),
            reliable=True,
            max_retries=8,
            wire_format=wire,
            fault_plan=plan,
            link_model=link_model,
        )
        for _ in range(rounds)
    ]


def run_round(link_model, wire: bool = False, plan=None, seed: int = SEED):
    """One seeded round on a fresh stack."""
    return run_rounds(link_model, wire=wire, plan=plan, seed=seed)[0]


#: A leader kill inside the shadowed round.
KILL_PLAN = FaultPlan(events=(FaultEvent(time=0.7, action="kill_leader", cell=(1, 1)),))

#: The link model of the execution-mode matrix.
SHADOWING = LogNormalShadowing(sigma=3.0, seed=SEED)

#: Fingerprints of four consecutive shadowed kill-leader rounds on one
#: stack.  Later rounds start from drained batteries and the killed
#: leader, and the stack's one gate carries its per-link packet counters
#: on, so each round draws fresh fades and its digest differs from the
#: last.
FULL_ROUNDS = ("34cc4453485945dd", "4d863da92c1ccb63", "618294e3720ec83f", "13aa3365b438f659")


@functools.cache
def full_rounds(rounds: int, wire: bool):
    """``rounds`` shadowed kill-leader rounds on one stack (seed-pure, so
    the tests share them)."""
    return tuple(run_rounds(SHADOWING, wire=wire, plan=KILL_PLAN, rounds=rounds))


def serial_full_round(wire: bool):
    """The reference shadowed kill-leader round."""
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


class TestScenarioSpec:
    """The link model is the world a round and an ``e1`` sweep accept."""

    def test_coerce(self):
        from repro.sweep import SweepSpec

        stack = deploy(make_network())
        with pytest.raises(TypeError, match="link_model must be"):
            stack.run_application(count_spec(), link_model="shadowing")
        # the retired world axis is refused before any run, not ignored
        with pytest.raises(ValueError, match="scenario"):
            SweepSpec(
                name="retired-axis",
                workload="e1",
                grid={"scenario": [None, {"link": SHADOWING.to_dict()}]},
            )

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: PerPairFading(depth=1.5), "depth"),
            (lambda: LogNormalShadowing(softness=0.0), "softness"),
            (lambda: link_model_from_dict({"sigma": 2.0}), "unknown link model"),
        ],
        ids=["fading-depth", "shadowing-softness", "missing-kind"],
    )
    def test_malformed_models_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()


class TestScenarioRuns:
    def test_unit_disk_is_byte_identical_to_no_scenario(self):
        base = run_round(None)
        named = run_round(UnitDisk())
        assert named.fingerprint() == base.fingerprint()
        assert named.link_faded is None

    @pytest.mark.parametrize(
        "model",
        [LogNormalShadowing(sigma=3.0, seed=7), PerPairFading(depth=0.7, seed=7)],
        ids=["shadowing", "fading"],
    )
    def test_link_models_rerun_identically_and_fade(self, model):
        first = run_round(model)
        again = run_round(model)
        assert first.fingerprint() == again.fingerprint()
        assert first.link_faded > 0
        assert first.fingerprint() != run_round(None).fingerprint()

    def test_rounds_on_one_stack_draw_fresh_fades(self, monkeypatch):
        """A stack keeps one gate per model, so a second round on it does
        not replay the first round's fade verdicts, and each round's
        ``link_faded`` counts its own frames.  Lossless rounds without ARQ
        send the same frames in the same order whatever faded before, so
        a replayed gate would fade the same list twice."""
        faded = []
        admit = LinkGate.admit

        def record(gate, src, dst):
            heard = admit(gate, src, dst)
            if not heard:
                faded[-1].append((src, dst))
            return heard

        monkeypatch.setattr(LinkGate, "admit", record)
        stack = deploy(make_network())
        spec = count_spec()
        runs = []
        for _ in range(2):
            faded.append([])
            runs.append(stack.run_application(spec, link_model=SHADOWING))
        assert faded[0] and faded[1]
        assert faded[0] != faded[1]
        assert [run.link_faded for run in runs] == [len(f) for f in faded]

    @pytest.mark.parametrize("rounds", [1, 4])
    @pytest.mark.parametrize("wire", [False, True], ids=["pickle", "wire"])
    def test_full_scenario_is_execution_mode_invariant(self, rounds, wire):
        """Every frame through the wire codec or none, on a fresh stack or
        one that re-arms its processes round after round: the same rounds."""
        runs = full_rounds(rounds, wire)
        assert tuple(r.fingerprint() for r in runs) == FULL_ROUNDS[:rounds]

    def test_dict_form_drives_the_identical_run(self):
        as_dict = json.loads(json.dumps(SHADOWING.to_dict()))
        assert (
            run_round(as_dict, plan=KILL_PLAN).fingerprint()
            == serial_full_round(False).fingerprint()
        )


class TestScenarioSweepAxis:
    def test_e1_scenario_axis_serial_matches_sharded(self):
        from repro.sweep import SweepSpec, run_sweep

        spec = SweepSpec(
            name="link-axis",
            workload="e1",
            grid={"link": [None, UnitDisk().to_dict(), SHADOWING.to_dict()]},
            fixed={"side": SIDE, "n_random": 140},
        )
        serial = run_sweep(spec, workers=1)
        sharded = run_sweep(spec, workers=2, timeout_s=600, retries=1)
        assert all(r["status"] == "ok" for r in serial + sharded)
        assert {r["run_id"]: r["fingerprint"] for r in sharded} == {
            r["run_id"]: r["fingerprint"] for r in serial
        }
        gated = {
            (r["params"]["link"] or {}).get("kind"): "link_faded" in r["metrics"]
            for r in serial
        }
        assert gated == {None: False, UnitDisk.kind: False, SHADOWING.kind: True}
