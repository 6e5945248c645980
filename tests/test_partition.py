"""Space-partitioned broadcast storm (DESIGN.md §12).

The subsystem's contract, pinned here:

* **serial == partitioned**: for every seeded configuration the K-shard
  conservative-lookahead storm produces the same fingerprint whether the
  shard worlds execute serially in-process or on real worker processes,
  across loss and jitter regimes (property test plus pinned examples);
* with no loss and no jitter no RNG is drawn, so K shards also match
  K = 1's whole-world run;
* the medium refuses transmissions whose delay undercuts the declared
  lookahead bound (the conservative-synchronization safety net);
* oversubscription resolves by shrinking the worker pool, never K.
"""

from __future__ import annotations

import multiprocessing as mp
import os

import numpy as np
import pytest

try:
    from hypothesis import HealthCheck, example, given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - baked into the test image
    HAVE_HYPOTHESIS = False

from repro.partition import effective_procs, plan_stripes, run_partitioned_storm
from repro.simulator.engine import Simulator

from conftest import make_deployment


def _storm_fingerprint(side, partitions, procs, seed, loss=0.0, jitter=0.0):
    return run_partitioned_storm(
        make_deployment(side=side, seed=seed),
        rounds=2,
        partitions=partitions,
        procs=procs,
        loss_rate=loss,
        jitter=jitter,
        rng=np.random.default_rng(seed + 1),
        wall_timeout_s=120.0,
    ).fingerprint


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
    sim.schedule_at(3.0, fired.append, "boundary")
    assert sim.run_until_lookahead(4.0) == 1
    assert fired[-1] == "boundary"
    # ...but injection into the past must be impossible
    with pytest.raises(ValueError):
        sim.schedule_at(2.0, fired.append, "late")


@pytest.mark.parametrize("partitions", [1, 2])
@pytest.mark.parametrize(
    "channel", [{"loss_rate": 0.3}, {"jitter": 0.1}], ids=["lossy", "jittered"]
)
def test_lossy_or_jittered_storm_requires_rng(channel, partitions):
    """Without ``rng`` the shards would draw from OS entropy and the storm
    would never replay: it is refused, as the medium refuses it."""
    net = make_deployment(side=4, n_random=100, seed=3)
    with pytest.raises(ValueError, match="needs rng"):
        run_partitioned_storm(net, rounds=2, partitions=partitions, procs=1, **channel)


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


# ---------------------------------------------------------------------------
# Worker-pool budgeting
# ---------------------------------------------------------------------------


def test_effective_procs_clamps_pool_not_shards():
    cpus = os.cpu_count() or 1
    budget = effective_procs(8 * cpus)
    assert budget.procs == cpus == budget.cpu_budget
    assert budget.requested == 8 * cpus and budget.clamped
    # explicit procs is an operator override of the cpu budget
    assert effective_procs(4 * cpus, procs=3 * cpus).procs == 3 * cpus
    # but never more workers than shards
    assert effective_procs(2, procs=64).procs == 2
    assert effective_procs(1).procs == 1 and not effective_procs(1).clamped


def test_daemonic_callers_are_pinned_to_one_worker():
    """A pool worker cannot start shard workers of its own, so even an
    explicit ``procs`` runs its shards in-process there."""
    with mp.get_context("spawn").Pool(1) as pool:
        budget = pool.apply_async(effective_procs, (4,), {"procs": 4}).get(timeout=60)
    assert budget.procs == 1


# ---------------------------------------------------------------------------
# The property: serial == partitioned for every seeded configuration
# ---------------------------------------------------------------------------


if HAVE_HYPOTHESIS:

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        derandomize=True,
    )
    @given(
        side=st.sampled_from([8, 16]),
        partitions=st.sampled_from([1, 2, 4]),
        loss=st.sampled_from([0.0, 0.12]),
        jitter=st.sampled_from([0.0, 0.2]),
        seed=st.integers(min_value=3, max_value=97),
    )
    # the shard medium's jitter bucket split at side 16, with and
    # without loss, and a lossless run held to the whole-world one
    @example(side=16, partitions=2, loss=0.0, jitter=0.2, seed=11)
    @example(side=16, partitions=4, loss=0.12, jitter=0.2, seed=11)
    @example(side=8, partitions=4, loss=0.0, jitter=0.0, seed=11)
    def test_property_serial_equals_partitioned(
        side, partitions, loss, jitter, seed
    ):
        kwargs = dict(seed=seed, loss=loss, jitter=jitter)
        serial = _storm_fingerprint(side, partitions, procs=1, **kwargs)
        parallel = _storm_fingerprint(side, partitions, procs=2, **kwargs)
        assert serial == parallel
        if loss == jitter == 0.0:
            assert serial == _storm_fingerprint(side, 1, procs=1, **kwargs)
