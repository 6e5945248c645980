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
link-model scenario round; one reliable round split into two shards
(cross-shard unicasts); the chaos-soak fingerprint; and a reliable lossy
query stream with a deferring tenant.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from typing import Callable, Dict

import numpy as np
import pytest

from repro.core import CountAggregation, VirtualArchitecture
from repro.runtime import deploy
from repro.scenario import LogNormalShadowing, Scenario
from repro.serve import QueryEngine, ServeConfig, TenantPolicy
from repro.serve.admission import synthesize_arrivals
from repro.serve.chaos import build_serving_stack, chaos_soak
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


def count_every_cell(cell) -> bool:
    """Module-level predicate: partitioned runs pickle the spec."""
    return True


def count_spec():
    return VirtualArchitecture(SIDE).synthesize(CountAggregation(count_every_cell))


def fault_matrix_case(kind: str, reliable: bool, wire: bool) -> str:
    """One ``TestFaultMatrix`` cell's first round (shared cache)."""
    return first_round(kind, reliable, wire)[2].fingerprint()


def count_round_case(reliable: bool, wire: bool, loss: float, jitter: float) -> str:
    """A side-4 count round, digested with the channel counters and every
    node's transport counters.

    ``run_application`` takes no jitter, so the stack's ``make_harness``
    is wrapped to add it (and to keep the medium and host for the digest).
    """
    stack = deploy(make_deployment(side=SIDE, n_random=100, seed=5))
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
    transport = tuple(
        (nid, tuple(sorted(proc.transport_stats().items())))
        for nid, proc in sorted(host.processes.items())
    )
    return stable_digest((result.fingerprint(), medium.stats.fingerprint(), transport))


def link_model_case() -> str:
    stack = deploy(make_deployment(side=SIDE, n_random=140, seed=17))
    return stack.run_application(
        count_spec(),
        loss_rate=0.05,
        rng=np.random.default_rng(18),
        reliable=True,
        max_retries=8,
        scenario=Scenario(link=LogNormalShadowing(sigma=3.0, seed=17)),
    ).fingerprint()


def partitioned_case() -> str:
    stack = deploy(make_deployment(side=SIDE, n_random=140, seed=7))
    return stack.run_application(
        count_spec(),
        loss_rate=0.1,
        rng=np.random.default_rng(9),
        reliable=True,
        max_retries=8,
        partitions=2,
        partition_procs=1,
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
    cases["partitioned-2-reliable"] = partitioned_case
    cases["chaos-soak"] = lambda: chaos_soak().fingerprint
    cases["serve-stream-defer"] = serve_stream_case
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
