"""Resilient-serving tests: overload, deadlines, fault-then-recover.

The DESIGN.md §16 contracts behind ``repro.serve``'s resilience layer:

* construction-time validation fails fast with exact messages at the
  ``Arrival`` / ``TenantPolicy`` / ``ServeConfig`` boundaries;
* per-tenant token buckets deterministically *shed* or *defer* overload,
  and every admitted query terminates with exactly one named outcome;
* deadline-bound queries retry missing cells under seeded backoff, then
  disclose what they have (``partial``) or expire — never hang, never
  silently reduce;
* a serving leader killed by an armed :class:`FaultPlan` does not orphan
  the engine: after failover it re-resolves bindings, invalidates
  exactly the dirtied cache cells, and keeps answering — matching a
  fresh-engine oracle, byte-identically across wire on/off;
* the chaos soak upholds the liveness invariant end to end;
* shed/expired queries flow through sweep metrics and analyze ingest as
  named outcomes, never as run failures.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core import CountAggregation, VirtualArchitecture
from repro.deployment import covered_deployment
from repro.runtime import FaultEvent, FaultPlan, deploy
from repro.runtime.faults import HealingConfig
from repro.runtime.routing import TransportProcess
from repro.serve import (
    OUTCOMES,
    Arrival,
    QueryEngine,
    ServeConfig,
    TenantPolicy,
    chaos_soak,
)
from repro.serve.chaos import build_serving_stack
from repro.simulator.trace import stable_digest
from repro.sweep import SweepSpec, run_sweep

from conftest import make_deployment


@pytest.fixture(scope="module")
def served_stack():
    net = make_deployment(side=4, n_random=140, seed=7)
    stack = deploy(net)
    va = VirtualArchitecture(4)
    run = stack.run_application(
        va.synthesize(CountAggregation(lambda c: True), max_level=1)
    )
    return stack, dict(run.exfiltrated)


def raises_exact(message: str):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


class TestBoundaryValidation:
    """Exact-message regression tests for the construction boundaries."""

    def test_arrival_rejects_negative_tenant(self):
        with raises_exact("arrival tenant must be >= 0, got -1"):
            Arrival(time=0.0, query_cell=(0, 0), tenant=-1)

    def test_arrival_rejects_empty_cells_tuple(self):
        with raises_exact("arrival cells must be None or a non-empty tuple, got ()"):
            Arrival(time=0.0, query_cell=(0, 0), cells=())

    def test_arrival_rejects_nonpositive_deadline(self):
        with raises_exact("arrival deadline must be > 0, got 0.0"):
            Arrival(time=0.0, query_cell=(0, 0), deadline=0.0)

    def test_arrival_boundary_values_accepted(self):
        # the boundaries themselves are legal: tenant 0, one cell, t=0
        arr = Arrival(time=0.0, query_cell=(0, 0), tenant=0, cells=((1, 1),))
        assert arr.tenant == 0 and arr.cells == ((1, 1),)

    def test_policy_rejects_negative_budget(self):
        with raises_exact("tenant budget must be >= 0, got -1.0"):
            TenantPolicy(budget=-1.0)

    def test_policy_rejects_unknown_overload(self):
        with raises_exact(
            "unknown overload policy 'panic'; expected one of ('shed', 'defer')"
        ):
            TenantPolicy(budget=1.0, overload="panic")

    def test_policy_rejects_negative_staleness(self):
        with raises_exact("tenant max_staleness must be >= 0, got -1"):
            TenantPolicy(max_staleness=-1)

    def test_config_rejects_nonpositive_deadline(self):
        with raises_exact("deadline must be > 0, got -2.0"):
            ServeConfig(deadline=-2.0)

    def test_config_rejects_staleness_without_cache(self):
        with raises_exact(
            "max_staleness > 0 requires cache=True (tenant 3 sets max_staleness=2)"
        ):
            ServeConfig(cache=False, tenant_policies={3: TenantPolicy(max_staleness=2)})
        with raises_exact(
            "max_staleness > 0 requires cache=True (default policy sets max_staleness=1)"
        ):
            ServeConfig(cache=False, default_policy=TenantPolicy(max_staleness=1))

    def test_config_rejects_certain_loss(self):
        # the medium's own bound: a config it would refuse is refused here
        with raises_exact("loss_rate must be in [0, 1), got 1.0"):
            ServeConfig(loss_rate=1.0)


class TestTransportValidation:
    """The transport and ``run_application`` refuse a negative retry
    budget with the same message."""

    def test_process_rejects_negative_max_retries(self, served_stack):
        stack, _ = served_stack
        with raises_exact("max_retries must be >= 0, got -1"):
            TransportProcess(stack.topology, stack.binding, max_retries=-1)

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"max_retries": -1}, "max_retries must be >= 0, got -1")],
        ids=["negative-retries"],
    )
    def test_run_application_rejects(self, served_stack, kwargs, message):
        stack, _ = served_stack
        spec = VirtualArchitecture(4).synthesize(CountAggregation(lambda c: True))
        with raises_exact(message):
            stack.run_application(
                spec, loss_rate=0.05, rng=np.random.default_rng(1), reliable=True,
                **kwargs,
            )

    def test_boundary_values_accepted(self, served_stack):
        stack, _ = served_stack
        proc = TransportProcess(stack.topology, stack.binding, max_retries=0)
        assert proc.max_retries == 0


class TestOverloadControl:
    def test_shed_and_defer_split_a_burst(self, served_stack):
        stack, storage = served_stack
        engine = QueryEngine(
            stack,
            storage,
            ServeConfig(tenant_policies={
                0: TenantPolicy(budget=1.0, overload="shed"),
                1: TenantPolicy(budget=1.0, overload="defer", max_defer_rounds=8),
            }),
        )
        burst = [
            Arrival(time=0.05 * (i + 1), query_cell=(3, 3), tenant=t)
            for t in (0, 1)
            for i in range(4)
        ]
        report = engine.serve(burst, round_interval=1.0, reduce_fn=sum)
        tenants = report.per_tenant()
        counts = report.outcome_counts()
        # liveness: every query terminates with exactly one named outcome
        assert sum(counts.values()) == len(burst)
        assert set(counts) == set(OUTCOMES)
        # one token in round one: tenant 0 sheds the rest of its burst...
        assert tenants[0]["shed"] == 3
        # ...while tenant 1 queues and drains one per round
        assert tenants[1]["ok"] == 4
        assert tenants[1]["deferred_rounds"] > 0
        assert engine.stats.shed == 3 and engine.stats.deferred > 0

    def test_defer_cap_sheds_the_overflow(self, served_stack):
        stack, storage = served_stack
        engine = QueryEngine(
            stack,
            storage,
            ServeConfig(tenant_policies={
                0: TenantPolicy(budget=1.0, overload="defer", max_defer_rounds=1),
            }),
        )
        burst = [
            Arrival(time=0.05 * (i + 1), query_cell=(3, 3), tenant=0)
            for i in range(4)
        ]
        report = engine.serve(burst, round_interval=1.0, reduce_fn=sum)
        counts = report.outcome_counts()
        # a query may wait at most one round before the bucket gives up
        assert counts["ok"] == 2 and counts["shed"] == 2

    def test_unlimited_tenant_is_never_throttled(self, served_stack):
        stack, storage = served_stack
        engine = QueryEngine(stack, storage)
        burst = [
            Arrival(time=0.05 * (i + 1), query_cell=(3, 3)) for i in range(6)
        ]
        report = engine.serve(burst, round_interval=1.0, reduce_fn=sum)
        assert report.outcome_counts()["ok"] == 6
        assert engine.stats.shed == 0 and engine.stats.deferred == 0


class TestDeadlines:
    def test_lossy_deadline_queries_terminate_named(self, served_stack):
        stack, storage = served_stack
        engine = QueryEngine(
            stack,
            storage,
            ServeConfig(
                loss_rate=0.5,
                rng=np.random.default_rng(4),
                cache=False,
                deadline=8.0,
                query_retries=3,
                retry_base=1.0,
            ),
        )
        outcomes = [engine.query((3, 3), reduce_fn=sum) for _ in range(4)]
        assert all(o.outcome in OUTCOMES for o in outcomes)
        assert not engine._active  # nothing hangs past its deadline
        assert engine.stats.retries > 0
        for o in outcomes:
            if o.outcome == "deadline_expired":
                # expiry means *nothing* arrived: every cell is disclosed
                assert len(o.missing_cells) == len(engine.storage_cells)
            if o.outcome == "partial":
                assert o.missing_cells  # disclosed, never silent

    def test_retries_recover_a_nearby_cell(self, served_stack):
        stack, storage = served_stack
        engine = QueryEngine(
            stack,
            storage,
            ServeConfig(
                loss_rate=0.3,
                rng=np.random.default_rng(4),
                cache=False,
                deadline=10.0,
                query_retries=4,
                retry_base=1.0,
            ),
        )
        near = sorted(storage)[-1]
        outcomes = [
            engine.query((3, 3), cells=[near], reduce_fn=sum) for _ in range(6)
        ]
        assert any(o.complete and o.retries > 0 for o in outcomes)

    def test_deadline_outcomes_fold_into_the_fingerprint(self, served_stack):
        stack, storage = served_stack

        def run(deadline):
            eng = QueryEngine(
                stack,
                storage,
                ServeConfig(
                    loss_rate=0.4,
                    rng=np.random.default_rng(9),
                    cache=False,
                    deadline=deadline,
                    query_retries=2,
                ),
            )
            eng.query((3, 3), reduce_fn=sum)
            return eng.fingerprint()

        assert run(4.0) == run(4.0)
        assert run(4.0) != run(40.0)


class TestStaleness:
    def test_lenient_tenant_rides_out_an_epoch_bump(self, served_stack):
        stack, storage = served_stack
        engine = QueryEngine(
            stack,
            storage,
            ServeConfig(tenant_policies={5: TenantPolicy(max_staleness=3)}),
        )
        fresh = engine.query((3, 3), tenant=5, reduce_fn=sum)
        stale_cell = next(c for c in engine.storage_cells if c != (3, 3))
        engine.update_field(stale_cell, 777)
        tx = engine.medium.stats.transmissions
        stale = engine.query((3, 3), tenant=5, reduce_fn=sum)
        assert stale.value == fresh.value  # served the old aggregate
        assert stale.staleness == 1
        assert engine.medium.stats.transmissions == tx  # radio-silent
        assert engine.stats.stale_hits > 0
        # the default (strict) tenant refuses the stale entry
        strict = engine.query((3, 3), tenant=0, reduce_fn=sum)
        assert strict.cache_misses == 1 and strict.staleness == 0
        assert strict.value != stale.value


def _recover_run(wire: bool):
    """Kill a serving leader mid-campaign; return (engine fp, outcomes)."""
    stack, storage = build_serving_stack(seed=9)
    engine = QueryEngine(
        stack,
        storage,
        ServeConfig(
            wire_format=wire,
            healing=HealingConfig(heartbeat_interval=1.0, miss_threshold=2, horizon=8.0),
        ),
    )
    probe_cell = sorted(storage)[0]
    victim = sorted(storage)[-1]
    cold = engine.query(probe_cell, reduce_fn=sum)
    engine.arm_faults(FaultPlan((
        FaultEvent(time=0.5, action="kill_leader", cell=victim),
    )))
    engine.tick()  # kill fires; heartbeat loss detected; cell fails over
    after = engine.query(probe_cell, reduce_fn=sum)
    fingerprint = stable_digest(
        (engine.fingerprint(), cold.digest_tuple(), after.digest_tuple())
    )
    return fingerprint, cold, after, engine


class TestFaultThenRecover:
    """The satellite: serving continuity across an armed leader kill."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return _recover_run(wire=False)

    def test_failover_keeps_serving_and_matches_oracle(self, baseline):
        _, cold, after, engine = baseline
        assert engine._fault_report is not None
        assert len(engine._fault_report.failovers) >= 1
        assert after.complete and after.missing_cells == []
        assert after.value == cold.value
        # exactly the failed-over cell was invalidated, nothing else
        assert after.cache_misses == 1
        # a fresh engine over the same stack must agree post-failover
        stack, storage = build_serving_stack(seed=9)
        oracle = QueryEngine(stack, storage).query(
            sorted(storage)[0], reduce_fn=sum
        )
        assert after.value == oracle.value

    @pytest.mark.parametrize("wire", [False, True])
    def test_wire_codec_is_invisible_to_recovery(self, baseline, wire):
        fp, _, _, _ = _recover_run(wire=wire)
        assert fp == baseline[0]

    def test_engine_leaves_the_callers_healing_config_alone(self):
        """The horizon counts from each round's start, so the engine
        neither copies nor rewrites the caller's config: a round admitted
        at t = 500 heals until 500 + horizon, and an application round
        given the same config runs to its own horizon."""
        hc = HealingConfig(horizon=30.0)
        stack, storage = build_serving_stack(side=4, seed=7)
        engine = QueryEngine(stack, storage, ServeConfig(reliable=True, healing=hc))
        batch = engine.run_batch([], at=500.0)
        assert engine.config.healing is hc and hc == HealingConfig(horizon=30.0)
        # the last heartbeat/watch timer is armed before 530 and fires
        # within one watch window after it
        window = hc.heartbeat_interval * hc.miss_threshold
        assert 530.0 <= batch.quiesced_at <= 530.0 + window
        spec = VirtualArchitecture(4).synthesize(CountAggregation(lambda c: True))
        reused, fresh = (
            stack.run_application(
                spec, reliable=True, healing=healing, loss_rate=0.05,
                rng=np.random.default_rng(1),
            )
            for healing in (hc, HealingConfig(horizon=30.0))
        )
        assert reused.latency == fresh.latency
        assert reused.fingerprint() == fresh.fingerprint()


class TestChaosSoak:
    @pytest.fixture(scope="class")
    def soak(self):
        return chaos_soak()

    def test_liveness_invariant_holds(self, soak):
        assert soak.liveness_ok
        assert sum(soak.counts.values()) == soak.queries
        assert soak.lost == 0 and soak.leftover_active == 0
        # the storm actually bit: overload shed, deadlines expired,
        # leaders failed over — and the engine still answers afterwards
        assert soak.shed > 0 and soak.expired > 0 and soak.failovers > 0
        assert soak.probe_complete

    @pytest.mark.parametrize(
        "variant", [{}, {"wire": True}], ids=["repeat", "wire"]
    )
    def test_fingerprint_is_invariant(self, soak, variant):
        """Byte-identical on repeat and with the wire codec."""
        assert chaos_soak(**variant).fingerprint == soak.fingerprint


#: Warm-cache queries must be at least this many times cheaper in energy
#: than cold ones (every aggregate fetched over the radio).
SERVE_CACHE_SPEEDUP_TARGET = 5.0

#: After a leader kill and failover, the recovered warm pass (exactly one
#: cache cell dirtied) must still be at least this many times cheaper in
#: energy than the cold pass.
SERVE_DEGRADED_SPEEDUP_TARGET = 2.0


def _gathered_engine(side, storage_level, n_queries, config=None):
    """An engine over level-``storage_level`` storage, plus ``n_queries``
    query cells spread over the leaders."""
    stack = deploy(covered_deployment(side, side * side * 7, seed=11))
    gather = stack.run_application(
        VirtualArchitecture(side).synthesize(
            CountAggregation(lambda c: True), max_level=storage_level
        )
    )
    engine = QueryEngine(stack, storage=dict(gather.exfiltrated), config=config)
    leaders = sorted(stack.binding.leaders)
    return engine, leaders[:: max(1, len(leaders) // n_queries)][:n_queries]


def _idle_energy(engine):
    """Energy of one empty round: the heartbeat floor healing pays."""
    energy0 = engine.medium.ledger.total
    engine.tick()
    return engine.medium.ledger.total - energy0


def _pass_energy(engine, cells, idle=0.0):
    """Serve every cell once; energy net of ``idle`` per query."""
    energy0 = engine.medium.ledger.total
    outcomes = [engine.query(cell, reduce_fn=sum) for cell in cells]
    raw = engine.medium.ledger.total - energy0
    return max(raw - len(cells) * idle, 0.0), outcomes


class TestServeBenchGates:
    def test_warm_and_failover_energy_gates(self):
        """Warm serving beats cold on energy, also after a failover.

        With healing on, every round also pays heartbeat traffic, so the
        failover passes are measured net of one idle round per query.
        """
        healing = ServeConfig(
            healing=HealingConfig(heartbeat_interval=1.0, miss_threshold=2, horizon=6.0),
        )
        engine, cells = _gathered_engine(8, 1, 6, config=healing)
        idle = _idle_energy(engine)
        cold, _ = _pass_energy(engine, cells, idle)
        _pass_energy(engine, cells, idle)  # warm the cache
        victim = sorted(engine.storage_cells)[-1]
        report = engine.arm_faults(
            FaultPlan((FaultEvent(time=0.5, action="kill_leader", cell=victim),))
        )
        engine.tick()  # the kill fires and the cell fails over
        recovered, outcomes = _pass_energy(engine, cells, _idle_energy(engine))
        assert len(report.failovers) >= 1, "armed leader kill never failed over"
        assert all(o.complete for o in outcomes)
        assert cold >= SERVE_DEGRADED_SPEEDUP_TARGET * recovered

        engine, cells = _gathered_engine(16, 2, 8)
        cold, _ = _pass_energy(engine, cells)
        warm, _ = _pass_energy(engine, cells)
        assert cold >= SERVE_CACHE_SPEEDUP_TARGET * warm


class TestSweepAndIngest:
    PARAMS = {"side": 4, "n_random": 140, "n_queries": 8}

    def test_resilience_axes_flow_through_the_sweep(self):
        spec = SweepSpec(
            name="serve-resilience-test",
            workload="serve",
            grid={"tenant_budget": [0.0, 1.0]},
            fixed={
                **self.PARAMS,
                "deadline": 6.0,
                "max_staleness": 1,
                "overload": "defer",
                "loss": 0.2,
                "kill_leaders": 1,
                "updates": 1,
            },
        )
        serial = run_sweep(spec, workers=1)
        assert all(r["status"] == "ok" for r in serial), [
            r["error"] for r in serial if r["status"] != "ok"
        ]
        sharded = run_sweep(spec, workers=2)
        assert sorted(r["fingerprint"] for r in serial) == sorted(
            r["fingerprint"] for r in sharded
        )
        for r in serial:
            m = r["metrics"]
            # the outcome taxonomy always sums to the admitted stream
            assert (
                m["ok_queries"] + m["partial_queries"]
                + m["shed_queries"] + m["expired_queries"]
            ) == m["queries"]
            assert m["failovers"] >= 1.0

    def test_legacy_serve_fingerprint_is_unchanged_by_new_axes(self):
        from repro.sweep.workloads import WORKLOADS

        legacy = WORKLOADS["serve"](dict(self.PARAMS), seed=21)
        explicit = WORKLOADS["serve"](
            {**self.PARAMS, "deadline": 0.0, "tenant_budget": 0.0,
             "max_staleness": 0, "kill_leaders": 0},
            seed=21,
        )
        assert legacy.fingerprint == explicit.fingerprint

    def test_ingest_counts_shed_and_expired_as_ok_runs(self, tmp_path):
        from repro.analyze import ingest_jsonl
        from repro.sweep.sink import append_record
        from repro.sweep.worker import base_record

        spec = SweepSpec(
            name="serve-outcomes",
            workload="serve",
            grid={"tenant_budget": [1.0]},
            replicates=2,
        )
        sink = tmp_path / "serve.jsonl"
        for run in spec.expand():
            record = base_record(run, shard=0, attempt=1)
            record.update({
                "status": "ok",
                "error": None,
                "elapsed_s": 0.01,
                "metrics": {
                    "queries": 8.0,
                    "ok_queries": 5.0,
                    "partial_queries": 1.0,
                    "shed_queries": 1.0,
                    "expired_queries": 1.0,
                    "retries": 3.0,
                },
                "fingerprint": f"fp-{run.primary_id.replace('/', '-')}",
            })
            append_record(str(sink), record)
        report = ingest_jsonl(str(sink))
        assert report.clean
        # shed/expired are named outcomes inside an *ok* run — ingest
        # must never surface them as run failures
        assert all(r.ok for r in report.records)
        for r in report.records:
            metrics = r.metric_dict()
            assert metrics["shed_queries"] == 1.0
            assert metrics["expired_queries"] == 1.0
