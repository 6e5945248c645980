"""Golden fingerprints of the unicast transport path.

Every answer a deployed round or the serving engine returns crosses the
medium's unicast path and the transport's hop-by-hop ARQ.  The other
determinism tests compare a run only with its own replay, so a change
that alters *what* the path computes, consistently, passes them all.
These cases pin the outputs themselves: each case's digest is checked
into ``tests/data/transport_golden.json``.  A mismatch means the unicast
path changed observable behaviour; the fix is the code, or — for an
intended behaviour change — a conscious regeneration::

    PYTHONPATH=src python tests/test_transport_golden.py --regen

Cases: the 12 fault-matrix rounds of ``test_runtime_faults``; side-4 count
rounds over reliable x wire x {no loss, loss, loss + jitter}; one
log-normal shadowed round; one reliable round split into two shards
(cross-shard unicasts); the chaos-soak fingerprint; a reliable lossy
query stream with a deferring tenant; and four sequences of rounds run
back to back on one stack (``multiround-*``), which pin that a round's
outputs do not depend on the rounds run before it on the same stack.
Two cases change the network under a transport that has already routed
through it: a serving stream whose relay is killed and later revived
between bursts, and a round in which relays run out of battery.  Two
more (``first-order-*``) run under the first-order radio model, whose tx
energy, rx energy and hop latency all differ, so charging one where
another is due changes their digests: a lossy broadcast storm with
unicast echoes on a bare medium, and a reliable wire-format round.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from typing import Callable, Dict

import numpy as np
import pytest

from repro.core import CountAggregation, FirstOrderRadioCostModel, VirtualArchitecture
from repro.runtime import (
    FaultEvent,
    FaultPlan,
    deploy,
    kill_random_nodes,
    plan_chaos,
    trace_route,
)
from repro.scenario import LogNormalShadowing
from repro.serve import QueryEngine, ServeConfig, TenantPolicy
from repro.serve.admission import synthesize_arrivals
from repro.serve.chaos import build_serving_stack, chaos_soak
from repro.simulator.engine import Simulator
from repro.simulator.network import WirelessMedium
from repro.simulator.trace import stable_digest

from conftest import make_deployment
from test_runtime_faults import first_round

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "transport_golden.json")

REGEN_HINT = (
    "the unicast transport path changed its output: fix the code, or, if "
    "the change is intended, regenerate the digests with "
    "`PYTHONPATH=src python tests/test_transport_golden.py --regen`"
)

SIDE = 4

#: 60 nJ to send a unit, 50 nJ to receive it, half a time unit per hop
#: and unit: no two of the medium's prices are equal
FIRST_ORDER = FirstOrderRadioCostModel(bandwidth=2.0)


def count_spec():
    return VirtualArchitecture(SIDE).synthesize(CountAggregation(lambda c: True))


def fault_matrix_case(kind: str, reliable: bool, wire: bool) -> str:
    """One ``TestFaultMatrix`` cell's first round (shared cache)."""
    return first_round(kind, reliable, wire)[2].fingerprint()


def digest_round(result, medium, host) -> str:
    """A round's fingerprint, channel counters and every node's transport
    counters."""
    transport = tuple(
        (nid, tuple(sorted(proc.transport_stats().items())))
        for nid, proc in sorted(host.processes.items())
    )
    return stable_digest((result.fingerprint(), medium.stats.fingerprint(), transport))


def count_round_case(
    reliable: bool, wire: bool, loss: float, jitter: float, cost_model=None
) -> str:
    """A side-4 count round, digested with the channel counters and every
    node's transport counters.

    ``run_application`` takes no jitter, so the stack's ``make_harness``
    is wrapped to add it (and to keep the medium and host for the digest).
    """
    stack = deploy(make_deployment(side=SIDE, n_random=100, seed=5), cost_model=cost_model)
    built = []
    build = stack.make_harness

    def make_harness(**kwargs):
        harness = build(jitter=jitter, **kwargs)
        built.append(harness)
        return harness

    stack.make_harness = make_harness
    result = stack.run_application(
        count_spec(),
        loss_rate=loss,
        rng=np.random.default_rng(21),
        reliable=reliable,
        max_retries=8,
        wire_format=wire,
    )
    _, medium, host = built[0]
    return digest_round(result, medium, host)


def multiround_case(rounds) -> str:
    """Run ``rounds`` back to back on one stack and digest every round.

    Each entry is ``(before, kwargs)``: ``before(net, stack)`` runs first
    (to kill or revive nodes) and returns extra ``run_application``
    keywords, merged over ``kwargs``.
    """
    net = make_deployment(side=SIDE, n_random=100, seed=5)
    stack = deploy(net)
    spec = count_spec()
    built = []
    build = stack.make_harness

    def make_harness(**kwargs):
        harness = build(**kwargs)
        built.append(harness)
        return harness

    stack.make_harness = make_harness
    digests = []
    for i, (before, kwargs) in enumerate(rounds):
        extra = before(net, stack) if before is not None else {}
        result = stack.run_application(
            spec, rng=np.random.default_rng(40 + i), max_retries=8, **kwargs, **extra
        )
        _, medium, host = built[-1]
        digests.append(digest_round(result, medium, host))
    return stable_digest(tuple(digests))


def _mode(reliable: bool, wire: bool, loss: float):
    return None, {"reliable": reliable, "wire_format": wire, "loss_rate": loss}


def _leader_storm(net, stack):
    plan = plan_chaos(
        sorted(stack.binding.leaders), kills=1, at=0.5, spacing=0.05,
        corrupt_frames=3, seed=3,
    )
    return {"fault_plan": plan}


def _kill_relays(net, stack):
    kill_random_nodes(net, 0.05, rng=3, spare=stack.binding.leaders.values())
    return {}


def _revive_all(net, stack):
    for node in net.nodes.values():
        if not node.alive:
            node.revive()
    return {}


MULTIROUND = {
    "alternating": [
        _mode(True, True, 0.1),
        _mode(False, False, 0.0),
        _mode(True, False, 0.1),
        _mode(False, True, 0.0),
        _mode(True, True, 0.0),
        _mode(False, False, 0.1),
    ],
    "corrupting-storm-between-clean": [
        _mode(True, True, 0.1),
        (_leader_storm, {"reliable": True, "wire_format": True, "loss_rate": 0.1}),
        _mode(True, True, 0.1),
    ],
    # 16 leader boots and 50 events of traffic: cut off mid-round, with
    # envelopes in custody and timers armed
    "cut-off-then-full": [
        (None, {"reliable": True, "wire_format": True, "loss_rate": 0.1, "max_events": 66}),
        _mode(True, True, 0.1),
    ],
    "after-kill": [
        _mode(True, True, 0.1),
        (_kill_relays, {"reliable": True, "wire_format": True, "loss_rate": 0.1}),
        (_revive_all, {"reliable": True, "wire_format": True, "loss_rate": 0.1}),
    ],
}


def link_model_case() -> str:
    stack = deploy(make_deployment(side=SIDE, n_random=140, seed=17))
    return stack.run_application(
        count_spec(),
        loss_rate=0.05,
        rng=np.random.default_rng(18),
        reliable=True,
        max_retries=8,
        link_model=LogNormalShadowing(sigma=3.0, seed=17),
    ).fingerprint()


def serve_stream_case() -> str:
    """A reliable lossy three-tenant stream; tenant 1 is budgeted with
    ``defer``, and a write between two bursts invalidates the cache."""
    stack, storage = build_serving_stack(side=SIDE, seed=7)
    engine = QueryEngine(
        stack,
        storage,
        ServeConfig(
            loss_rate=0.1,
            rng=np.random.default_rng(3),
            reliable=True,
            tenant_policies={1: TenantPolicy(budget=1.0, overload="defer")},
        ),
    )
    queriers = sorted(stack.binding.leaders)
    first = engine.serve(
        synthesize_arrivals(queriers, 12, seed=4, mean_interarrival=2.0, tenants=3),
        round_interval=8.0,
        reduce_fn=sum,
    )
    engine.update_field(sorted(storage)[0], 5)
    second = engine.serve(
        synthesize_arrivals(queriers, 12, seed=5, mean_interarrival=2.0, tenants=3),
        round_interval=8.0,
        reduce_fn=sum,
    )
    return stable_digest((engine.fingerprint(), first.fingerprint(), second.fingerprint()))


def serve_relay_kill_case() -> str:
    """A reliable lossy stream on one engine without healing.  Between
    bursts ``arm_faults`` kills the relay in front of a storage leader;
    it fires inside the next burst, and a later plan revives it the same
    way, so a transport's remembered next hops must follow both.  The
    cache is off, so every query crosses the radio."""
    stack, storage = build_serving_stack(side=SIDE, seed=7)
    engine = QueryEngine(
        stack,
        storage,
        ServeConfig(
            loss_rate=0.1, rng=np.random.default_rng(11), reliable=True, cache=False
        ),
    )
    queriers = sorted(stack.binding.leaders)
    relay = trace_route(stack.topology, stack.binding, queriers[-1], sorted(storage)[0])[-2]
    assert relay not in stack.binding.leaders.values()
    bursts = []
    for seed, fault in ((21, None), (22, "kill_node"), (23, "restore")):
        if fault is not None:
            engine.arm_faults(FaultPlan((FaultEvent(time=3.0, action=fault, node=relay),)))
        bursts.append(
            engine.serve(
                synthesize_arrivals(queriers, 10, seed=seed, mean_interarrival=2.0),
                round_interval=8.0,
                reduce_fn=sum,
            ).fingerprint()
        )
    return stable_digest((relay, engine.fingerprint(), tuple(bursts)))


def battery_deaths_case() -> str:
    """A reliable lossy round without healing in which relays run out of
    battery mid-round: every other non-leader is left a few hops of
    energy, so ``SensorNode.draw`` kills it inside the round."""
    net = make_deployment(side=SIDE, n_random=100, seed=5)
    stack = deploy(net)
    leaders = set(stack.binding.leaders.values())
    for nid, node in sorted(net.nodes.items()):
        if nid % 2 == 0 and nid not in leaders:
            node.initial_energy = node.consumed_energy + 4.0 + 3.0 * (nid % 5)
    built = []
    build = stack.make_harness

    def make_harness(**kwargs):
        harness = build(**kwargs)
        built.append(harness)
        return harness

    stack.make_harness = make_harness
    result = stack.run_application(
        count_spec(), loss_rate=0.1, rng=np.random.default_rng(31), reliable=True, max_retries=8
    )
    _, medium, host = built[0]
    dead = tuple(nid for nid, node in sorted(net.nodes.items()) if not node.alive)
    return stable_digest((dead, digest_round(result, medium, host)))


def first_order_storm(jitter: float):
    """One lossy storm of :func:`first_order_medium_case`: its channel
    counters, ledger, every battery and the clock."""
    net = make_deployment(side=SIDE, seed=5)
    for nid, node in net.nodes.items():
        node.initial_energy = (5.0 + nid % 10) * 1e-7
    sim = Simulator()
    medium = WirelessMedium(
        sim, net, cost_model=FIRST_ORDER, loss_rate=0.2, jitter=jitter,
        rng=np.random.default_rng(9),
    )

    def sink(nid, pkt):
        if nid % 2 == 0 and pkt.kind == "storm" and (nid + pkt.src) % 3 == 0:
            medium.unicast(nid, pkt.src, "echo", pkt.payload, 0.25)

    medium.receive = sink
    for r in range(4):
        for nid in net.alive_ids():
            medium.broadcast(nid, "storm", r, 0.1 * (1 + nid % 3))
            if nid % 4 == 0 and net.node(nid).alive:
                medium.broadcast(nid, "beacon", r, 0.0)
        sim.run()
    batteries = tuple(
        (nid, node.alive, node.consumed_energy) for nid, node in sorted(net.nodes.items())
    )
    return medium.stats.fingerprint(), medium.ledger.fingerprint(), batteries, sim.now


def first_order_medium_case() -> str:
    """A lossy broadcast storm with unicast echoes on a bare medium under
    :data:`FIRST_ORDER`, run jitter-free and jittered.

    Three kinds: ``storm`` broadcasts of fractional sizes, ``echo``
    unicasts the sink sends back to some storm senders, and zero-size
    ``beacon`` broadcasts.  Batteries hold a few rounds of traffic, so
    nodes die from their own draws, inside a batched arrival when the
    medium is jitter-free.  The sink ignores odd nodes, so receivers it
    ignores sit between the ones it acts for.
    """
    return stable_digest(tuple(first_order_storm(jitter) for jitter in (0.0, 0.3)))


def _cases() -> Dict[str, Callable[[], str]]:
    cases: Dict[str, Callable[[], str]] = {}
    for kind in ("kill-leaders", "partition-restore", "corrupt-frames"):
        for reliable in (True, False):
            for wire in (False, True):
                name = (
                    f"faults-{kind}-{'reliable' if reliable else 'unreliable'}-"
                    f"{'wire' if wire else 'plain'}"
                )
                cases[name] = functools.partial(fault_matrix_case, kind, reliable, wire)
    for reliable in (True, False):
        for wire in (False, True):
            for regime, loss, jitter in (
                ("lossless", 0.0, 0.0),
                ("loss", 0.1, 0.0),
                ("loss-jitter", 0.1, 0.3),
            ):
                name = (
                    f"count-{'reliable' if reliable else 'unreliable'}-"
                    f"{'wire' if wire else 'plain'}-{regime}"
                )
                cases[name] = functools.partial(
                    count_round_case, reliable, wire, loss, jitter
                )
    cases["scenario-link-model"] = link_model_case
    cases["chaos-soak"] = lambda: chaos_soak().fingerprint
    cases["serve-stream-defer"] = serve_stream_case
    cases["serve-relay-kill-restore"] = serve_relay_kill_case
    cases["battery-deaths-reliable"] = battery_deaths_case
    cases["first-order-medium-storm"] = first_order_medium_case
    cases["first-order-count-reliable-wire-loss"] = functools.partial(
        count_round_case, True, True, 0.1, 0.0, FIRST_ORDER
    )
    for name, rounds in MULTIROUND.items():
        cases[f"multiround-{name}"] = functools.partial(multiround_case, rounds)
    return cases


CASES = _cases()


def regenerate() -> None:
    doc = {
        "comment": "Golden digests of the unicast transport path; regenerate "
        "only for an intended behaviour change "
        "(PYTHONPATH=src python tests/test_transport_golden.py --regen).",
        "cases": {name: case() for name, case in CASES.items()},
    }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_golden() -> Dict[str, str]:
    # tolerate a missing file so `--regen` can bootstrap; the coverage
    # test below fails loudly if it is absent
    if not os.path.exists(GOLDEN_PATH):
        return {}
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["cases"]


def test_every_case_has_a_committed_digest():
    assert set(load_golden()) == set(CASES), REGEN_HINT


@pytest.mark.parametrize("name", sorted(CASES))
def test_digest_matches_golden(name):
    golden = load_golden()
    assert name in golden, REGEN_HINT
    assert CASES[name]() == golden[name], f"case {name!r}: {REGEN_HINT}"


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
        print(f"wrote {GOLDEN_PATH}")
    else:
        sys.exit(pytest.main([__file__, "-v"]))
