"""Benchmark entry point.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload storm --seed 1 --seconds 20 --trace 0

Runs one workload for ``--seconds`` seconds and prints, as the last line
of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``).  The line before it is a
JSON detail record: the host probe, the op-time tail, the replay digest,
and the machine.  ``--trace 1`` also writes the recorded spans to
``perfbench/out/``.  Exits non-zero, printing no result, when the program
under test (``src/repro``) is missing, and exits 1 after printing the
result when any op's output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src``, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program to measure at {SRC}")
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(SRC, "repro"):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    from harness import END_TO_END_UNITS, PER_LAYER_UNITS, run_benchmark
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {sorted(WORKLOADS)})")
    span_path = None
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        span_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
    result = run_benchmark(
        args.workload, args.seed, args.seconds, trace=bool(args.trace), span_path=span_path
    )
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps(result["detail"], sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    if not result["correct"]:
        print("perfbench: wrong output: " + "; ".join(result["detail"]["errors"]), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
