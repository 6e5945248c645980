"""Property tests for reliable transport and simulator determinism.

* Under i.i.d. packet loss, hop-by-hop ARQ delivers each envelope
  **at most once** to the ``_deliver`` hook, and every originated envelope is
  *accounted for* — delivered or explicitly dropped, never silently
  suppressed (duplicate suppression must never eat a new uid).
* Same-seed runs of the deployed stack produce identical
  :class:`EnergyLedger` and :class:`MediumStats` fingerprints.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - baked into the test image
    HAVE_HYPOTHESIS = False

from repro.core import CountAggregation, VirtualArchitecture
from repro.runtime import deploy
from repro.runtime.routing import (
    ACK_TIMEOUT,
    BACKOFF_FACTOR,
    BACKOFF_JITTER,
    BACKOFF_MAX,
    TransportProcess,
)
from repro.simulator.engine import Simulator
from repro.simulator.network import WirelessMedium
from repro.simulator.process import ProcessHost

from conftest import RecordingTransport, make_deployment

pytestmark = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed"
)


@functools.lru_cache(maxsize=1)
def shared_stack():
    """One deployed stack reused across hypothesis examples (read-only:
    transport runs neither drain noticeable battery nor mutate tables)."""
    net = make_deployment(side=4, seed=9)
    return net, deploy(net)


def run_reliable_round(
    loss_rate: float,
    seed: int,
    n_envelopes: int,
    wire_format: bool = False,
):
    net, stack = shared_stack()
    sim = Simulator()
    medium = WirelessMedium(
        sim, net, loss_rate=loss_rate, rng=np.random.default_rng(seed)
    )
    host = ProcessHost(sim, medium)
    delivered_log, dropped_log = [], []
    for nid in net.alive_ids():
        host.add(
            nid,
            RecordingTransport(
                delivered_log,
                dropped_log,
                stack.topology,
                stack.binding,
                reliable=True,
                max_retries=10,
                wire_format=wire_format,
            ),
        )
    host.start()
    cells = sorted(stack.binding.leaders)
    for i in range(n_envelopes):
        src_cell = cells[i % len(cells)]
        dst_cell = cells[(i * 7 + 3) % len(cells)]
        if dst_cell == src_cell:
            dst_cell = cells[(i * 7 + 4) % len(cells)]
        origin = stack.binding.leader_of(src_cell)
        # distinct origins per i (12 <= 16 cells), so uids are all distinct
        sim.schedule(0.1 * i, host.get(origin).originate, dst_cell, f"msg-{i}")
    sim.run_until_quiet()
    delivered = [env.uid for _, env in delivered_log]
    dropped = [env.uid for _, env, _ in dropped_log]
    return delivered, dropped, host


@pytest.mark.parametrize(
    "wire_format", [False, True], ids=["plain-backoff", "wire-codec-backoff"]
)
@given(
    loss_rate=st.floats(min_value=0.0, max_value=0.35),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=12, deadline=None)
def test_at_most_once_delivery_and_no_lost_new_uids(wire_format, loss_rate, seed):
    """ARQ retransmission under the seeded exponential backoff never
    delivers a uid twice, with the wire codec on as well as off."""
    delivered, dropped, host = run_reliable_round(
        loss_rate, seed, n_envelopes=12, wire_format=wire_format
    )
    # at-most-once: no uid reaches the delivery hook twice
    assert len(delivered) == len(set(delivered)), (
        f"duplicate delivery under loss={loss_rate} seed={seed} "
        f"wire_format={wire_format}"
    )
    # accounting: every originated envelope is delivered or explicitly
    # dropped somewhere — a *new* uid swallowed by duplicate suppression
    # would vanish without either record
    accounted = set(delivered) | set(dropped)
    assert len(accounted) == 12, (
        f"envelopes vanished: {12 - len(accounted)} unaccounted "
        f"(loss={loss_rate} seed={seed} wire_format={wire_format})"
    )


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=8, deadline=None)
def test_suppression_only_fires_on_actual_duplicates(seed):
    # lossless channel: ARQ never retransmits, so nothing may be suppressed
    delivered, dropped, host = run_reliable_round(0.0, seed, n_envelopes=8)
    assert sum(p.duplicates_suppressed for p in host.processes.values()) == 0
    assert len(delivered) == 8
    assert dropped == []


def _deployed_fingerprint(seed: int):
    net = make_deployment(side=4, seed=3)
    stack = deploy(net)
    va = VirtualArchitecture(4)
    spec = va.synthesize(CountAggregation(lambda c: True))
    result = stack.run_application(
        spec, loss_rate=0.2, rng=np.random.default_rng(seed),
        reliable=True, max_retries=6,
    )
    return (
        sorted(result.ledger.per_node().items()),
        sorted(result.ledger.by_category().items()),
        result.transmissions,
        result.latency,
        result.drops,
    )


def test_same_seed_runs_are_identical():
    """Pin seeded determinism of EnergyLedger + MediumStats end to end."""
    assert _deployed_fingerprint(77) == _deployed_fingerprint(77)
    # and the seed actually matters (guards against a seed being ignored)
    assert _deployed_fingerprint(77) != _deployed_fingerprint(78)


def test_retry_delay_is_deterministic_monotone_and_capped():
    """The backoff schedule is a pure function of (node, uid, attempt):
    exponential in the attempt, jittered within [base, base * (1+jitter)],
    capped at BACKOFF_MAX, and identical across process instances."""
    net, stack = shared_stack()

    def make():
        return TransportProcess(stack.topology, stack.binding, reliable=True)

    p1, p2 = make(), make()
    p1.node_id = p2.node_id = 5
    uid = (5, 3)
    delays = [p1._retry_delay(uid, k) for k in range(8)]
    assert delays == [p2._retry_delay(uid, k) for k in range(8)]
    for k, d in enumerate(delays):
        base = min(ACK_TIMEOUT * BACKOFF_FACTOR**k, BACKOFF_MAX)
        assert base <= d <= base * (1 + BACKOFF_JITTER)
    # cap: exponent growth stops at BACKOFF_MAX (jitter aside)
    assert delays[-1] <= BACKOFF_MAX * (1 + BACKOFF_JITTER)
    # a different uid or node yields a different jitter draw somewhere
    assert [p1._retry_delay((5, 4), k) for k in range(8)] != delays
