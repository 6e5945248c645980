"""Space-partitioned parallel simulator (DESIGN.md §12).

The subsystem's contract, pinned here:

* **serial == partitioned**: for every seeded configuration the K-shard
  conservative-lookahead run produces the same fingerprint whether the
  shard worlds execute serially in-process or on real worker processes —
  across loss, jitter, wire-codec, and fault-plan regimes (property test
  plus pinned regression examples);
* K = 1 through the partition entry point is byte-identical to the
  legacy single-simulator path (same root RNG stream);
* battery drain and leader state are written back to the parent stack,
  so a partitioned round composes with follow-up rounds exactly like a
  serial one;
* the medium refuses transmissions whose delay undercuts the declared
  lookahead bound (the conservative-synchronization safety net);
* nested parallelism resolves by shrinking the worker pool, never K.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

try:
    from hypothesis import HealthCheck, example, given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - baked into the test image
    HAVE_HYPOTHESIS = False

from repro.core import CountAggregation, VirtualArchitecture
from repro.partition import (
    SWEEP_WORKERS_ENV,
    default_lookahead,
    effective_procs,
    plan_stripes,
    run_partitioned_application,
    run_partitioned_storm,
)
from repro.runtime import FaultEvent, FaultPlan, deploy
from repro.simulator.engine import Simulator

from conftest import make_deployment


def _count_all(cell) -> bool:
    """Module-level predicate: specs are pickled into shard workers."""
    return True


def _spec(side: int):
    return VirtualArchitecture(side).synthesize(CountAggregation(_count_all))


def _fingerprint(result):
    report = result.fault_report
    return (
        result.ledger.fingerprint(),
        result.transmissions,
        result.drops,
        result.latency,
        result.events_processed,
        # exfiltrated (not root_payload): under heavy loss a round may
        # legitimately exhaust its retries, and both sides must agree on
        # that outcome too
        tuple(sorted(result.exfiltrated.items())),
        None
        if report is None
        else (
            tuple(report.injected),
            tuple(report.failovers),
            report.reroutes,
            report.frames_rejected,
        ),
    )


def _boundary_kill_plan(stack, partitions: int):
    """A kill_leader landing on a cell that borders a shard cut."""
    plan = plan_stripes(stack.network, max(2, partitions))
    cell = next(
        c for c in sorted(plan.boundary_cells) if c in stack.binding.leaders
    )
    return FaultPlan(
        events=(FaultEvent(time=0.5, action="kill_leader", cell=cell),)
    )


def _app_fingerprint(
    side: int,
    partitions: int,
    procs: int,
    seed: int = 11,
    loss: float = 0.0,
    jitter: float = 0.0,
    wire: bool = False,
    fault: bool = False,
):
    net = make_deployment(side=side, seed=seed)
    stack = deploy(net)
    plan = _boundary_kill_plan(stack, partitions) if fault else None
    result = run_partitioned_application(
        stack,
        _spec(side),
        partitions=partitions,
        procs=procs,
        loss_rate=loss,
        jitter=jitter,
        rng=np.random.default_rng(seed + 1),
        reliable=loss > 0.0 or fault,
        max_retries=8,
        wire_format=wire,
        fault_plan=plan,
        wall_timeout_s=120.0,
    )
    return _fingerprint(result)


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------


def test_plan_stripes_shape():
    net = make_deployment(side=8, seed=11)
    plan = plan_stripes(net, 4)
    assert plan.partitions == 4 and plan.side == 8
    # every node owned exactly once, by the shard of its column stripe
    owned = [nid for shard in plan.local_nodes for nid in shard]
    assert sorted(owned) == sorted(net.node_ids())
    for nid in net.node_ids():
        col = net.cell_of(nid)[0]
        assert plan.shard_of_node[nid] == col * 4 // 8
    # stripe cuts exist, and every boundary cell touches a foreign shard
    assert plan.boundary_cells
    for cell in plan.boundary_cells:
        assert 0 <= plan.shard_of_cell(cell) < 4


def test_plan_stripes_validation():
    net = make_deployment(side=8, seed=11)
    with pytest.raises(ValueError):
        plan_stripes(net, 3)  # 8 % 3 != 0
    with pytest.raises(ValueError):
        plan_stripes(net, 16)  # more shards than columns
    with pytest.raises(ValueError):
        plan_stripes(net, 0)


# ---------------------------------------------------------------------------
# Engine primitives the windowed driver relies on
# ---------------------------------------------------------------------------


def test_engine_run_until_lookahead_and_inject():
    sim = Simulator()
    fired = []
    for t in (1.0, 2.0, 3.0, 5.0):
        sim.schedule(t, fired.append, t)
    assert sim.next_event_time() == 1.0
    # arrival exactly == horizon is inside the window
    assert sim.run_until_lookahead(3.0) == 3
    assert fired == [1.0, 2.0, 3.0]
    assert sim.now == 3.0  # the clock stays at the last fired event
    assert sim.next_event_time() == 5.0
    # boundary injection at the current instant is legal...
    sim.inject_at(3.0, fired.append, "boundary")
    assert sim.run_until_lookahead(4.0) == 1
    assert fired[-1] == "boundary"
    # ...but injection into the past must be impossible
    with pytest.raises(ValueError):
        sim.inject_at(2.0, fired.append, "late")


def test_medium_rejects_sub_lookahead_delay():
    """The conservative bound is load-bearing: a partitioned medium must
    refuse any transmission that could arrive inside the current window."""
    net = make_deployment(side=8, seed=11)
    with pytest.raises(RuntimeError, match="lookahead"):
        run_partitioned_storm(
            net, rounds=2, partitions=2, procs=1,
            rng=np.random.default_rng(11), lookahead=999.0,
        )


# ---------------------------------------------------------------------------
# Serial == partitioned
# ---------------------------------------------------------------------------


def test_k1_byte_identical_to_legacy():
    side, seed = 8, 11
    net = make_deployment(side=side, seed=seed)
    stack = deploy(net)
    legacy = stack.run_application(
        _spec(side), loss_rate=0.1, rng=np.random.default_rng(seed + 1),
        reliable=True, max_retries=8,
    )
    net2 = make_deployment(side=side, seed=seed)
    stack2 = deploy(net2)
    via_k1 = run_partitioned_application(
        stack2, _spec(side), partitions=1, procs=1, loss_rate=0.1,
        rng=np.random.default_rng(seed + 1), reliable=True, max_retries=8,
    )
    assert _fingerprint(via_k1) == _fingerprint(legacy)


@pytest.mark.parametrize("partitions", [2, 4])
@pytest.mark.parametrize("wire", [False, True])
def test_serial_equals_worker_processes(partitions, wire):
    serial = _app_fingerprint(8, partitions, procs=1, loss=0.1, wire=wire)
    parallel = _app_fingerprint(8, partitions, procs=2, loss=0.1, wire=wire)
    assert serial == parallel


@pytest.mark.parametrize("partitions", [2, 4])
def test_lossless_serial_equals_one_process_per_shard(partitions):
    serial = _app_fingerprint(8, partitions, procs=1)
    parallel = _app_fingerprint(8, partitions, procs=partitions)
    assert serial == parallel


def test_boundary_cell_fault_replays_identically():
    serial = _app_fingerprint(8, 4, procs=1, loss=0.05, wire=True, fault=True)
    parallel = _app_fingerprint(8, 4, procs=2, loss=0.05, wire=True, fault=True)
    assert serial == parallel
    report = serial[-1]
    assert report is not None
    assert len(report[1]) == 1  # the boundary failover, recorded exactly once


def test_storm_fingerprint_procs_invariant():
    net = make_deployment(side=8, seed=11)
    runs = [
        run_partitioned_storm(
            net, rounds=3, partitions=4, procs=procs, loss_rate=0.1,
            jitter=0.2, rng=np.random.default_rng(11),
        )
        for procs in (1, 2, 4)
    ]
    assert len({r.fingerprint for r in runs}) == 1
    assert runs[0].windows > 0


def test_quiet_border_storm_terminates_under_the_watchdog():
    """A radio range under one cell side leaves little traffic crossing
    each shard cut; the windowed driver must still finish (the wall-clock
    watchdog raises on a deadlock) and match the serial run."""
    quiet = make_deployment(side=8, n_random=8 * 8 * 7, seed=11, range_cells=0.9)
    serial = run_partitioned_storm(
        quiet, rounds=4, partitions=1, rng=np.random.default_rng(11)
    )
    parallel = run_partitioned_storm(
        quiet, rounds=4, partitions=4, procs=4,
        rng=np.random.default_rng(11), wall_timeout_s=60.0,
    )
    assert parallel.fingerprint == serial.fingerprint
    assert parallel.windows > 0


def test_battery_writeback_composes_with_followup_round():
    """Round 2 on a stack whose round 1 was partitioned must equal round 2
    on a stack whose round 1 was serial: drained batteries, consumed
    energy, and leader state all written back to the parent network."""
    side, seed = 8, 11

    def two_rounds(partitioned: bool):
        net = make_deployment(side=side, seed=seed)
        stack = deploy(net)
        if partitioned:
            run_partitioned_application(
                stack, _spec(side), partitions=4, procs=2,
                rng=np.random.default_rng(seed + 1),
            )
        else:
            stack.run_application(
                _spec(side), rng=np.random.default_rng(seed + 1)
            )
        second = stack.run_application(
            _spec(side), rng=np.random.default_rng(seed + 2)
        )
        return _fingerprint(second)

    assert two_rounds(partitioned=True) == two_rounds(partitioned=False)


# ---------------------------------------------------------------------------
# Nested parallelism
# ---------------------------------------------------------------------------


def test_effective_procs_clamps_pool_not_shards(monkeypatch):
    monkeypatch.setenv(SWEEP_WORKERS_ENV, str(8 * (__import__("os").cpu_count() or 1)))
    budget = effective_procs(4)
    assert budget.procs == 1 and budget.requested == 4 and budget.clamped
    # explicit procs is an operator override of the cpu budget
    assert effective_procs(4, procs=3).procs == 3
    # but never more workers than shards
    assert effective_procs(2, procs=64).procs == 2
    monkeypatch.delenv(SWEEP_WORKERS_ENV)
    assert effective_procs(1).procs == 1


def test_daemonic_callers_are_pinned_to_one_worker():
    """A pool worker cannot start shard workers of its own, so even an
    explicit ``procs`` runs its shards in-process there."""
    with mp.get_context("spawn").Pool(1) as pool:
        budget = pool.apply_async(effective_procs, (4,), {"procs": 4}).get(timeout=60)
    assert budget.procs == 1


def test_default_lookahead_positive():
    from repro.core import UniformCostModel

    assert default_lookahead(UniformCostModel(), None) > 0.0


# ---------------------------------------------------------------------------
# The property: serial == partitioned for every seeded configuration
# ---------------------------------------------------------------------------


if HAVE_HYPOTHESIS:

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        derandomize=True,
    )
    @given(
        side=st.sampled_from([8, 16]),
        partitions=st.sampled_from([1, 2, 4]),
        loss=st.sampled_from([0.0, 0.12]),
        jitter=st.sampled_from([0.0, 0.2]),
        wire=st.booleans(),
        fault=st.booleans(),
        seed=st.integers(min_value=3, max_value=97),
    )
    @example(side=8, partitions=4, loss=0.12, jitter=0.0, wire=True,
             fault=True, seed=11)
    @example(side=16, partitions=2, loss=0.0, jitter=0.2, wire=False,
             fault=False, seed=11)
    @example(side=8, partitions=1, loss=0.12, jitter=0.0, wire=True,
             fault=False, seed=11)
    def test_property_serial_equals_partitioned(
        side, partitions, loss, jitter, wire, fault, seed
    ):
        kwargs = dict(seed=seed, loss=loss, jitter=jitter, wire=wire,
                      fault=fault)
        serial = _app_fingerprint(side, partitions, procs=1, **kwargs)
        parallel = _app_fingerprint(side, partitions, procs=2, **kwargs)
        assert serial == parallel
