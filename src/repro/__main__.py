"""Command-line entry point.

``python -m repro [side] [threshold]`` runs the complete methodology
pipeline on a small topographic-query instance and prints every stage —
a smoke test that doubles as the thirty-second tour of the library.

``python -m repro sweep ...`` dispatches to the sharded experiment-sweep
orchestrator (see :mod:`repro.sweep.cli` for flags).

``python -m repro serve`` brings up a persistent query engine over a
small deployment and serves a synthesized arrival stream, printing the
per-round cache/radio accounting.  The serving contracts are pinned by
``tests/test_serve_engine.py`` and ``tests/test_serve_resilience.py``.

``python -m repro partition [side] [K]`` runs one seeded broadcast storm
serially and space-partitioned (DESIGN.md §12) and prints the matching
fingerprints plus the wall-clock split; ``tests/test_partition.py``
holds the acceptance matrix.

``python -m repro scenario`` runs one seeded round over log-normal
shadowed links with a kill-leader fault (DESIGN.md §14), printing its
fingerprint and the count of frames the link model faded;
``tests/test_scenario.py`` holds the acceptance matrix.

``python -m repro analyze ...`` runs the campaign-analytics pipeline
(:mod:`repro.analyze`): one-pass aggregation of sweep JSONL sinks with
confidence intervals (``--sink``/``--by``).

An unknown subcommand or a non-numeric ``side``/``threshold`` prints one
usage line naming the subcommands and exits 2.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable

from .apps import (
    GaussianBlobField,
    TopographicQueryApp,
    render_energy_map,
    render_label_map,
)
from .core import VirtualArchitecture
from .core.analysis import estimate_quadtree, quadtree_step_count


def _parse(args: list[str], defaults: tuple, usage: str) -> list | None:
    """Positional ``args`` cast like ``defaults`` (absent ones default);
    prints ``usage`` and returns None if one does not parse."""
    try:
        return [type(d)(a) for a, d in zip(args, defaults)] + list(defaults[len(args):])
    except ValueError:
        print(usage, file=sys.stderr)
        return None


def _serve_demo(args: list[str]) -> int:
    """``python -m repro serve [side] [queries]``."""
    parsed = _parse(args, (4, 12), "usage: python -m repro serve [side] [queries]")
    if parsed is None:
        return 2
    side, n_queries = parsed

    from .core import CountAggregation
    from .deployment import covered_deployment
    from .runtime import deploy
    from .serve import QueryEngine, ServeConfig, synthesize_arrivals

    net = covered_deployment(side, side * side * 9, seed=7)
    stack = deploy(net)
    va = VirtualArchitecture(side)
    gather = stack.run_application(
        va.synthesize(CountAggregation(lambda c: True), max_level=1)
    )
    engine = QueryEngine(
        stack, storage=dict(gather.exfiltrated), config=ServeConfig()
    )
    print(f"deployed stack       : {side}x{side} cells, {len(net)} nodes, "
          f"{len(gather.exfiltrated)} storage leaders")
    arrivals = synthesize_arrivals(
        sorted(stack.binding.leaders), n_queries, seed=5, tenants=3
    )
    report = engine.serve(arrivals, round_interval=2.0, reduce_fn=sum)
    for i, batch in enumerate(report.batches):
        hits = sum(o.cache_hits for o in batch.outcomes)
        print(
            f"round {i}: {len(batch.outcomes)} queries admitted at "
            f"t={batch.admitted_at:.1f}, {batch.transmissions} tx, "
            f"{hits} cache hits, energy {batch.energy:.1f}"
        )
    counts = report.outcome_counts()
    print(
        f"served {report.queries} queries "
        f"({report.complete_queries} complete) over "
        f"{len(report.batches)} rounds: cache hit rate "
        f"{report.cache_hit_rate:.2f}, {report.transmissions} tx, "
        f"energy {report.energy:.1f}"
    )
    print("outcomes             : "
          + ", ".join(f"{name}={counts[name]}" for name in sorted(counts)))
    print(f"engine fingerprint   : {engine.fingerprint()}")
    return 0 if report.complete_queries == report.queries else 1


def _partition_demo(args: list[str]) -> int:
    """``python -m repro partition [side] [K]``."""
    parsed = _parse(args, (16, 4), "usage: python -m repro partition [side] [K]")
    if parsed is None:
        return 2
    side, partitions = parsed

    import time

    import numpy as np

    from .deployment import covered_deployment
    from .partition import effective_procs, run_partitioned_storm

    seed = 11
    net = covered_deployment(side, side * side * 6, seed)
    budget = effective_procs(partitions)
    print(f"deployment           : {side}x{side} cells, {len(net)} nodes")
    print(f"partitions           : {partitions} shards on {budget.procs} "
          f"worker processes (cpu budget {budget.cpu_budget})")
    t0 = time.perf_counter()
    serial = run_partitioned_storm(
        net, rounds=4, partitions=1, rng=np.random.default_rng(seed)
    )
    serial_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = run_partitioned_storm(
        net, rounds=4, partitions=partitions, procs=budget.procs,
        rng=np.random.default_rng(seed),
    )
    parallel_wall = time.perf_counter() - t0
    print(f"serial               : {serial.deliveries} deliveries, "
          f"{serial.events_processed} events, {serial_wall:.2f}s, "
          f"fingerprint {serial.fingerprint}")
    print(f"partitioned (K={partitions})    : {parallel.deliveries} deliveries, "
          f"{parallel.events_processed} events, {parallel.windows} windows, "
          f"{parallel_wall:.2f}s, fingerprint {parallel.fingerprint}")
    match = parallel.fingerprint == serial.fingerprint
    print(f"serial == partitioned: {'MATCH' if match else 'MISMATCH'} "
          f"({serial_wall / parallel_wall:.2f}x)")
    return 0 if match else 1


#: The scenario demo's world: a 4x4-cell, 140-node deployment.
SCENARIO_SIDE = 4
SCENARIO_SEED = 11


def _scenario_demo(args: list[str]) -> int:
    """``python -m repro scenario``."""
    import numpy as np

    from .core import CountAggregation
    from .deployment import covered_deployment
    from .runtime import FaultEvent, FaultPlan, deploy
    from .scenario import LogNormalShadowing

    link = LogNormalShadowing(sigma=3.0, seed=SCENARIO_SEED)
    plan = FaultPlan(events=(FaultEvent(time=0.7, action="kill_leader", cell=(1, 1)),))
    print(f"link model           : {link.kind}, sigma {link.sigma} dB, "
          f"seed {link.seed}")
    stack = deploy(covered_deployment(SCENARIO_SIDE, 140, SCENARIO_SEED))
    run = stack.run_application(
        VirtualArchitecture(SCENARIO_SIDE).synthesize(CountAggregation(lambda c: True)),
        rng=np.random.default_rng(SCENARIO_SEED + 1),
        reliable=True,
        max_retries=8,
        fault_plan=plan,
        link_model=link,
    )
    print(f"run                  : {run.transmissions} tx, "
          f"{run.events_processed} events, "
          f"fingerprint {run.fingerprint()}")
    print(f"link model faded     : {run.link_faded} frames")
    return 0


def _forward(module: str) -> Callable[[list[str]], int]:
    """A subcommand that hands its arguments to ``module.main``."""
    return lambda args: importlib.import_module(module, __package__).main(args)


#: ``python -m repro <name> ...`` -> the handler of its remaining arguments.
SUBCOMMANDS: dict[str, Callable[[list[str]], int]] = {
    "analyze": _forward(".analyze.cli"),
    "partition": _partition_demo,
    "scenario": _scenario_demo,
    "serve": _serve_demo,
    "sweep": _forward(".sweep.cli"),
}

USAGE = (
    "usage: python -m repro [side [threshold]] | "
    f"{{{','.join(SUBCOMMANDS)}}} ..."
)


def main(argv: list[str] | None = None) -> int:
    """Run the demo; returns a process exit code."""
    args = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] in SUBCOMMANDS:
        return SUBCOMMANDS[args[0]](args[1:])
    parsed = _parse(args, (16, 0.5), USAGE)
    if parsed is None:
        return 2
    side, threshold = parsed
    # side <= 0 must not slip through: 0 & -1 == 0 passes the bit trick
    if side <= 0 or side & (side - 1):
        print(f"side must be a positive power of two, got {side}", file=sys.stderr)
        return 2

    va = VirtualArchitecture(side)
    field = GaussianBlobField(
        [(0.28, 0.32, 0.11, 1.0), (0.72, 0.66, 0.08, 0.9)]
    )
    app = TopographicQueryApp(va, field, threshold)

    print(f"virtual architecture : {va}")
    est = estimate_quadtree(side)
    print(
        f"analytic estimate    : {quadtree_step_count(side)} hop-steps, "
        f"{est.total_energy:.0f} energy (unit messages)"
    )
    report = app.run_virtual()
    print(
        f"one round measured   : latency {report.performance.latency:.1f}, "
        f"energy {report.performance.total_energy:.1f}, "
        f"{report.performance.messages} messages"
    )
    print(
        f"result               : {report.regions} regions "
        f"(oracle {report.expected_regions}; "
        f"{'MATCH' if report.correct else 'MISMATCH'})"
    )
    print("\nlabeled regions:")
    print(render_label_map(app.feature_matrix))
    result = va.execute(app.aggregation, charge_compute=False)
    print("\nper-node energy heat map (hot NW spine under the paper's mapping):")
    print(render_energy_map(result.ledger.per_node(), side))
    return 0 if report.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
