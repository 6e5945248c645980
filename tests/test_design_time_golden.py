"""Golden fingerprints of the design-time layer (``repro.core``).

The virtual architecture's cost functions price every message of a
design-time run by its route: each hop's sender pays tx, its receiver pays
rx, and latency is store-and-forward over the hops (Section 4.2).  The
executors, the primitives environment, the mapping evaluator, the process
network and the centralized baseline all apply that charge.  The closed
forms of ``core.analysis`` pin some of their totals, but only for count
aggregation with free compute under the uniform model; these cases pin
the ledgers themselves, bit for bit, for both cost models, charged
compute, region payloads, partial reductions and tree topologies.  Each
case's digest is checked into ``tests/data/design_time_golden.json``.  A
mismatch means the design-time layer changed observable behaviour; the fix
is the code, or — for an intended behaviour change — a conscious
regeneration::

    PYTHONPATH=src python tests/test_design_time_golden.py --regen
"""

from __future__ import annotations

import functools
import json
import os
import sys
from typing import Callable, Dict

import pytest

from repro.apps import feature_matrix_aggregation, random_feature_matrix
from repro.apps.centralized import run_centralized
from repro.core import (
    CountAggregation,
    FirstOrderRadioCostModel,
    HierarchicalGroups,
    OrientedGrid,
    ProcessNetwork,
    SumAggregation,
    UniformCostModel,
    VirtualArchitecture,
    VirtualTree,
    build_quadtree,
    execute_round,
    execute_round_sync,
    recursive_quadrant_mapping,
    sink_rooted_mapping,
    synthesize_quadtree_program,
    synthesize_tree_program,
)
from repro.simulator.trace import stable_digest

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "design_time_golden.json")

REGEN_HINT = (
    "the design-time layer changed its output: fix the code, or, if the "
    "change is intended, regenerate the digests with "
    "`PYTHONPATH=src python tests/test_design_time_golden.py --regen`"
)

#: the uniform model prices tx, rx and a hop's latency alike; the
#: first-order model (60 nJ to send a unit, 50 nJ to receive it, half a
#: time unit per hop and unit) prices each differently, so charging one
#: where another is due changes its digests
COST_MODELS = {
    "uniform": UniformCostModel,
    "first-order": functools.partial(FirstOrderRadioCostModel, bandwidth=2.0),
}

SIDES = (1, 2, 4, 8, 16, 32)
REGION_SIDES = (4, 8, 16)
TREES = ((2, 0), (2, 1), (2, 4), (3, 3), (4, 2), (4, 4), (4, 5))


def digest_result(result) -> str:
    """An :class:`ExecutionResult`'s ledger, counters and exfiltrations."""
    return stable_digest(
        (
            result.ledger.fingerprint(),
            result.latency,
            result.messages,
            result.data_units,
            result.hop_units,
            result.events,
            tuple(sorted(repr(item) for item in result.exfiltrated.items())),
        )
    )


def grid_spec(side: int, aggregation=None, max_level=None):
    return synthesize_quadtree_program(
        HierarchicalGroups(OrientedGrid(side)),
        aggregation or CountAggregation(lambda c: True),
        max_level=max_level,
    )


def regions(side: int):
    return feature_matrix_aggregation(random_feature_matrix(side, 0.45, rng=side))


def count_case(side: int, cost: str, charge_compute: bool) -> str:
    return digest_result(
        execute_round(
            grid_spec(side), cost_model=COST_MODELS[cost](), charge_compute=charge_compute
        )
    )


def count_sync_case(side: int, cost: str) -> str:
    return digest_result(execute_round_sync(grid_spec(side), cost_model=COST_MODELS[cost]()))


def regions_case(side: int, cost: str, mode: str) -> str:
    spec = grid_spec(side, regions(side))
    cm = COST_MODELS[cost]()
    if mode == "sync":
        return digest_result(execute_round_sync(spec, cost_model=cm))
    return digest_result(
        execute_round(spec, cost_model=cm, charge_compute=mode == "async-compute")
    )


def partial_case(cost: str, mode: str) -> str:
    """A side-8 region reduction stopped at level 1: 16 storage leaders."""
    spec = grid_spec(8, regions(8), max_level=1)
    cm = COST_MODELS[cost]()
    if mode == "sync":
        return digest_result(execute_round_sync(spec, cost_model=cm))
    return digest_result(execute_round(spec, cost_model=cm))


def tree_case(arity: int, depth: int, cost: str, charge_compute: bool) -> str:
    spec = synthesize_tree_program(
        VirtualTree(arity, depth), SumAggregation(lambda a: 0.5 + a[1] % 3)
    )
    return digest_result(
        execute_round(spec, cost_model=COST_MODELS[cost](), charge_compute=charge_compute)
    )


def centralized_case(cost: str, serial_sink: bool) -> str:
    result = run_centralized(
        random_feature_matrix(8, 0.45, rng=8),
        cost_model=COST_MODELS[cost](),
        sink=(3, 5),
        units_per_reading=1.5,
        serial_sink=serial_sink,
    )
    return stable_digest(
        (
            result.ledger.fingerprint(),
            result.latency,
            result.messages,
            result.hop_units,
            result.regions,
            tuple(result.areas),
        )
    )


def value_of(coord) -> float:
    return float(coord[0] * 8 + coord[1])


def primitives_case(op: str, cost: str) -> str:
    """One primitive on a side-8 design environment, digested with the
    ledger and the envelopes left in every inbox."""
    env = VirtualArchitecture(8, cost_model=COST_MODELS[cost]()).design_environment()
    if op == "send":
        out = tuple(
            env.send(src, dst, ("p", i), size)
            for i, (src, dst, size) in enumerate(
                [((0, 0), (7, 7), 1.0), ((5, 2), (1, 6), 2.5), ((3, 3), (3, 3), 4.0),
                 ((6, 1), (6, 7), 0.0), ((2, 7), (7, 0), 0.75)]
            )
        ) + (env.send_to_leader((5, 6), 2, "up", 1.25),)
    elif op == "gather":
        envelopes, report = env.gather_to_leader((5, 6), 2, value_of, 1.5)
        out = (tuple((e.sender, e.payload, e.size_units) for e in envelopes), report)
    elif op == "broadcast":
        out = env.broadcast_from_leader((5, 6), 3, "cmd", 0.5)
    elif op == "reduce":
        out = env.reduce_to_leader((1, 6), 3, value_of, lambda a, b: a + b, 2.0)
    else:
        out = env.barrier((5, 6), 2, 1.0)
    inboxes = tuple(
        (node, tuple(repr(e) for e in iter(functools.partial(env.receive, node), None)))
        for node in env.grid.nodes()
    )
    return stable_digest((repr(out), env.ledger.fingerprint(), env.messages_sent, inboxes))


def mapping_case(mapper: str, cost: str) -> str:
    grid = OrientedGrid(8)
    graph = build_quadtree(grid, data_units_per_edge=2.5)
    if mapper == "quadrant":
        mapping = recursive_quadrant_mapping(graph, HierarchicalGroups(grid))
    else:
        mapping = sink_rooted_mapping(graph, grid, sink=(5, 2))
    cm = COST_MODELS[cost]()
    return stable_digest(
        (mapping.per_node_energy(cm).fingerprint(), mapping.communication_cost(cm))
    )


def process_network_case(cost: str) -> str:
    """A4's streaming network: four quadrant leaders of a side-4 grid
    stream eight per-round counts to the root."""
    net = ProcessNetwork(grid=OrientedGrid(4), cost_model=COST_MODELS[cost]())
    corners = [(0, 0), (2, 0), (0, 2), (2, 2)]
    totals = []

    def source(i):
        ch = net.channel(f"q{i}")
        for r in range(8):
            yield ("compute", 1.0 + i)
            yield ("write", ch, 4 + r)

    def root():
        channels = [net.channel(f"q{i}") for i in range(4)]
        for _ in range(8):
            total = 0
            for ch in channels:
                total += yield ("read", ch)
            yield ("compute", 2.0)
            totals.append(total)

    net.add_process("root", root, node=(1, 1))
    for i, corner in enumerate(corners):
        net.add_channel(f"q{i}", capacity=2, token_units=1.0 + 0.5 * i)
        net.add_process(f"src{i}", functools.partial(source, i), node=corner)
        net.connect(f"q{i}", f"src{i}", "root")
    finish = net.run()
    return stable_digest((sorted(finish.items()), tuple(totals), net.ledger.fingerprint()))


def _cases() -> Dict[str, Callable[[], str]]:
    cases: Dict[str, Callable[[], str]] = {}
    for cost in COST_MODELS:
        for side in SIDES:
            for compute in (True, False):
                name = f"count-side{side}-{cost}-{'compute' if compute else 'free'}"
                cases[name] = functools.partial(count_case, side, cost, compute)
            cases[f"count-sync-side{side}-{cost}"] = functools.partial(
                count_sync_case, side, cost
            )
        for side in REGION_SIDES:
            for mode in ("async-compute", "async-free", "sync"):
                cases[f"regions-side{side}-{cost}-{mode}"] = functools.partial(
                    regions_case, side, cost, mode
                )
        for mode in ("async", "sync"):
            cases[f"partial-side8-level1-{cost}-{mode}"] = functools.partial(
                partial_case, cost, mode
            )
        for arity, depth in TREES:
            for compute in (True, False):
                name = f"tree-a{arity}-d{depth}-{cost}-{'compute' if compute else 'free'}"
                cases[name] = functools.partial(tree_case, arity, depth, cost, compute)
        for serial in (True, False):
            name = f"centralized-{cost}-{'serial' if serial else 'parallel'}-sink"
            cases[name] = functools.partial(centralized_case, cost, serial)
        for op in ("send", "gather", "broadcast", "reduce", "barrier"):
            cases[f"primitives-{op}-{cost}"] = functools.partial(primitives_case, op, cost)
        for mapper in ("quadrant", "sink"):
            cases[f"mapping-{mapper}-{cost}"] = functools.partial(mapping_case, mapper, cost)
        cases[f"process-network-a4-{cost}"] = functools.partial(process_network_case, cost)
    return cases


CASES = _cases()


def regenerate() -> None:
    doc = {
        "comment": "Golden digests of the design-time layer; regenerate "
        "only for an intended behaviour change "
        "(PYTHONPATH=src python tests/test_design_time_golden.py --regen).",
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
