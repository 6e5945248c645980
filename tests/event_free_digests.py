"""Print event-free digests of the serving surfaces and the count rounds.

A change that moves only how many events a run processes (boot events of
processes that never act, say) moves every fingerprint that folds
``events_processed``.  Before re-pinning such fingerprints, compare what
they cover without the event count: this script prints one line per
surface with its name, an event-free digest, ``events_processed`` and
the number of processes hosted.

* An engine's digest is :meth:`QueryEngine.fingerprint`'s parts minus
  ``events_processed``, plus the transport counters of every hosted
  process whose counters are not all zero.
* A round's digest is :class:`DeployedRunResult`'s fingerprint parts
  minus ``events_processed``, plus the medium's counters and the same
  non-zero transport counters.

Surfaces: the engines of the three serving transport goldens,
``chaos_soak`` at five settings, the ``serve`` sweep kernel three ways,
the ``python -m repro serve`` demo, the perfbench ``serve_mixed`` world
over one 120-op cycle at seeds 11 and 90210, and the twelve ``count-*``
transport golden rounds.  Run it in two trees and diff the outputs; the
name and digest columns must match, and the last two columns show what
the change moved::

    PYTHONPATH=src python3 tests/event_free_digests.py > change.txt
    (cd parent && PYTHONPATH=src python3 tests/event_free_digests.py) > parent.txt
    diff <(cut -d' ' -f1,2 parent.txt) <(cut -d' ' -f1,2 change.txt)
    diff parent.txt change.txt

Tier-1 does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from typing import Any, Callable, Iterator, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE, os.path.join(ROOT, "perfbench")):
    if path not in sys.path:
        sys.path.insert(0, path)

import test_transport_golden as golden  # noqa: E402
from repro.__main__ import _serve_demo  # noqa: E402
from repro.runtime.stack import DeployedStack  # noqa: E402
from repro.serve import QueryEngine  # noqa: E402
from repro.serve.chaos import chaos_soak  # noqa: E402
from repro.simulator.trace import stable_digest  # noqa: E402
from repro.sweep.workloads import query_serving  # noqa: E402
from workloads import ServeMixed  # noqa: E402


def active_transport(host) -> Tuple[Any, ...]:
    """Per-node transport counters of the processes that did something."""
    rows = []
    for nid, proc in sorted(host.processes.items()):
        stats = tuple(sorted(proc.transport_stats().items()))
        if any(value for _, value in stats):
            rows.append((nid, stats))
    return tuple(rows)


def engine_line(name: str, engine: QueryEngine) -> str:
    report = engine._fault_report
    digest = stable_digest(
        (
            tuple(engine._outcome_digests),
            engine.stats.digest_tuple(),
            engine.medium.stats.fingerprint(),
            engine.medium.ledger.fingerprint(),
            engine.sim.now,
            None if report is None else report.fingerprint(),
            active_transport(engine._host),
        )
    )
    return (
        f"{name} {digest} events={engine.sim.events_processed} "
        f"hosted={len(engine._host.processes)}"
    )


def round_line(name: str, result, medium, host) -> str:
    report = result.fault_report
    digest = stable_digest(
        (
            result.ledger.fingerprint(),
            tuple(sorted((str(c), repr(v)) for c, v in result.exfiltrated.items())),
            result.transmissions,
            result.drops,
            result.delivered_envelopes,
            result.latency,
            result.rejected_frames,
            None if report is None else report.fingerprint(),
            result.link_faded,
            medium.stats.fingerprint(),
            active_transport(host),
        )
    )
    return f"{name} {digest} events={result.events_processed} hosted={len(host.processes)}"


@contextlib.contextmanager
def recording(cls: type, attr: str, keep: Callable[..., Any]) -> Iterator[List[Any]]:
    """Patch ``cls.attr`` to append ``keep(self, returned)`` to a list."""
    original = cls.__dict__[attr]
    kept: List[Any] = []

    def wrapper(self, *args, **kwargs):
        returned = original(self, *args, **kwargs)
        kept.append(keep(self, returned))
        return returned

    setattr(cls, attr, wrapper)
    try:
        yield kept
    finally:
        setattr(cls, attr, original)


def engines_of(run: Callable[[], Any]) -> List[QueryEngine]:
    with recording(QueryEngine, "__init__", lambda engine, _: engine) as engines:
        run()
    return engines


def serve_mixed_engine(seed: int) -> QueryEngine:
    world = ServeMixed(seed)
    for i in range(world.cycle_ops):
        snap = world.before(i)
        world.observe(i, snap, world.op(i))
    return world.engine


def quiet_serve_demo() -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        _serve_demo([])


def main() -> int:
    engine_surfaces: List[Tuple[str, Callable[[], Any]]] = [
        ("golden:serve-stream-defer", golden.serve_stream_case),
        ("golden:serve-relay-kill-restore", golden.serve_relay_kill_case),
        ("golden:chaos-soak", chaos_soak),
        ("chaos_soak:seed7-wire", lambda: chaos_soak(seed=7, wire=True)),
    ]
    for seed in (3, 11, 90210):
        engine_surfaces.append((f"chaos_soak:seed{seed}", lambda s=seed: chaos_soak(seed=s)))
    for label, params in (
        ("kill_leaders", {"kill_leaders": 2, "loss": 0.05, "n_queries": 24}),
        ("deadline", {"deadline": 6.0, "loss": 0.1, "tenant_budget": 2.0,
                      "overload": "defer", "updates": 2}),
        ("plain", {"updates": 2}),
    ):
        engine_surfaces.append(
            (f"sweep-serve:{label}", lambda p=params: query_serving(p, seed=5))
        )
    engine_surfaces.append(("cli:serve", quiet_serve_demo))
    for name, run in engine_surfaces:
        for i, engine in enumerate(engines_of(run)):
            print(engine_line(name if i == 0 else f"{name}#{i}", engine))
    for seed in (11, 90210):
        print(engine_line(f"serve_mixed:seed{seed}", serve_mixed_engine(seed)))
    for name in sorted(golden.CASES):
        if not name.startswith("count-"):
            continue
        with recording(
            DeployedStack, "make_harness", lambda _, harness: harness
        ) as harnesses, recording(
            DeployedStack, "run_application", lambda _, result: result
        ) as results:
            golden.CASES[name]()
        (_, medium, host), result = harnesses[-1], results[-1]
        print(round_line(f"golden:{name}", result, medium, host))
    return 0


if __name__ == "__main__":
    sys.exit(main())
