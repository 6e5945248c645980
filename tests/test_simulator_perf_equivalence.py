"""The batched broadcast fan-out must be observationally identical to the
legacy per-receiver path: same :class:`MediumStats`, same energy ledger,
same sink call order — only ``Simulator.events_processed`` may (and
should) shrink.

The receive kernel (``WirelessMedium._arrive_many``) hoists per-packet
work out of the receiver loop, so the oracle also drives it through the
receiver-side effects that could expose a reordering: receivers dying
from their own rx draw mid-batch, a sink transmitting mid-batch, and a
sink reading the counters mid-batch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.engine import Simulator
from repro.simulator.network import WirelessMedium

from conftest import make_deployment


#: receiver-side effects ``run_storm`` can add to the plain storm
CASES = ("energy", "unicast", "snapshot")

REGIMES = pytest.mark.parametrize(
    "loss_rate,jitter",
    [(0.0, 0.0), (0.25, 0.0), (0.0, 0.4), (0.25, 0.4)],
    ids=["clean", "loss", "jitter", "loss+jitter"],
)


def run_storm(batch_fanout, loss_rate=0.0, jitter=0.0, rounds=3, seed=5, case=None):
    """Every alive node broadcasts each round; capture all observables.

    ``case`` adds one receiver-side effect (None = plain storm):

    * ``"energy"`` — finite batteries, so receivers die from their own rx
      draw mid-batch.  The medium charges that copy but hands it to no
      sink, so the sink asserts that it never sees a dead receiver.
      ``observed`` holds, after every round, the dead nodes and the
      number of copies charged but withheld so far;
    * ``"unicast"`` — every receiver of a broadcast unicasts an echo back
      to its sender from inside the sink;
    * ``"snapshot"`` — every sink call records the channel and ledger
      fingerprints and the (addition-order sensitive) ledger total.

    Case runs' sinks act for every third node only, so receivers the sink
    ignores sit between the ones it acts for, and send fractional packet
    sizes, whose repeated sums differ from their products: a batched
    counter that multiplies instead of adding one term per receiver shows
    up.

    Returns ``(stats, ledger, arrivals, events, observed)``.
    """
    net = make_deployment(side=4, seed=5)
    sim = Simulator()
    medium = WirelessMedium(
        sim, net, loss_rate=loss_rate, jitter=jitter,
        rng=np.random.default_rng(seed), batch_fanout=batch_fanout,
    )
    observed = None if case in (None, "unicast") else []
    if case == "energy":
        # ~33 receptions of ~0.2 units per node and round: batteries run
        # out in rounds 1-2
        for nid, node in net.nodes.items():
            node.initial_energy = 4.0 + nid % 20 / 2
    arrivals = []  # (time, receiver, src, kind) in sink order
    handed = 0  # sink calls, for every receiver

    def sink(nid, pkt):
        nonlocal handed
        assert net.node(nid).alive, f"node {nid} got a copy after its death"
        handed += 1
        if case is not None and nid % 3:
            return
        arrivals.append((sim.now, nid, pkt.src, pkt.kind))
        if case == "unicast" and pkt.kind == "storm":
            medium.unicast(nid, pkt.src, "echo", pkt.payload, 0.3)
        elif case == "snapshot":
            ledger = medium.ledger
            observed.append(
                (medium.stats.fingerprint(), ledger.fingerprint(), ledger.total)
            )

    medium.receive = sink
    for r in range(rounds):
        for nid in net.alive_ids():
            size = 1.0 if case is None else 0.1 * (1 + nid % 3)
            medium.broadcast(nid, "storm", r, size)
        sim.run()
        if case == "energy":
            charged = sum(record.rx for record in medium.stats.records.values())
            dead = tuple(nid for nid, node in sorted(net.nodes.items()) if not node.alive)
            observed.append((dead, charged - handed))
    stats = medium.stats.fingerprint()
    ledger = medium.ledger.fingerprint()
    return stats, ledger, arrivals, sim.events_processed, observed


@REGIMES
def test_batch_fanout_matches_legacy_path(loss_rate, jitter):
    batched = run_storm(True, loss_rate, jitter)
    legacy = run_storm(False, loss_rate, jitter)
    assert batched[0] == legacy[0], "MediumStats diverged"
    assert batched[1] == legacy[1], "energy ledger diverged"
    assert batched[2] == legacy[2], "sink order/timing diverged"


@REGIMES
@pytest.mark.parametrize("case", CASES)
def test_receive_kernel_matches_legacy_path_under_receiver_effects(
    case, loss_rate, jitter
):
    batched = run_storm(True, loss_rate, jitter, case=case)
    legacy = run_storm(False, loss_rate, jitter, case=case)
    assert batched[0] == legacy[0], "MediumStats diverged"
    assert batched[1] == legacy[1], "energy ledger diverged"
    assert batched[2] == legacy[2], "sink order/timing diverged"
    assert batched[4] == legacy[4], "mid-batch observations diverged"
    # each case really exercises its effect
    assert batched[2], "no sink call"
    if case == "energy":
        assert batched[4][-1][1], "no receiver died from its own rx draw"
    elif case == "unicast":
        assert any(kind == "echo" for *_, kind in batched[2]), "no echo arrived"
    elif case == "snapshot":
        assert len(batched[4]) == len(batched[2])


def test_batch_fanout_processes_fewer_events():
    batched = run_storm(True)
    legacy = run_storm(False)
    # lossless, jitter-free: one delivery event per broadcast vs one per
    # receiver — the whole point of the fast path
    assert batched[3] < legacy[3]
    assert batched[0] == legacy[0]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    loss_rate=st.one_of(st.just(0.0), st.floats(0.01, 0.9)),
    jitter=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
)
def test_property_batched_byte_identical_to_legacy(seed, loss_rate, jitter):
    """Across random seeds and every (loss, jitter) regime — including the
    interleaved loss+jitter stream — the batched path must reproduce the
    legacy path's MediumStats, energy ledger, and delivery timestamps
    byte for byte."""
    batched = run_storm(True, loss_rate, jitter, rounds=2, seed=seed)
    legacy = run_storm(False, loss_rate, jitter, rounds=2, seed=seed)
    assert batched[0] == legacy[0], "MediumStats fingerprint diverged"
    assert batched[1] == legacy[1], "energy ledger fingerprint diverged"
    assert batched[2] == legacy[2], "delivery order/timestamps diverged"


def test_same_seed_same_mode_identical():
    for mode in (True, False):
        assert run_storm(mode, 0.2, 0.3) == run_storm(mode, 0.2, 0.3)
