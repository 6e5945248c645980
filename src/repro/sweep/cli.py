"""The ``python -m repro sweep`` subcommand.

Builds a :class:`~repro.sweep.spec.SweepSpec` from a JSON file
(``--spec``) or inline flags (``--workload`` + repeated ``--grid``/
``--fixed``), runs it through the shard scheduler with live per-shard
progress, and audits the cross-shard determinism duplicates.  The sink
it writes is what ``python -m repro analyze`` turns into tables.

Examples::

    python -m repro sweep --workload e1 --grid side=4,8,16 \\
        --replicates 3 --workers 4 --out sweep_e1.jsonl

    python -m repro sweep --workload churn --grid churn=0.0,0.25,0.5,1.0 \\
        --grid rotate=false,true --fixed side=4 --replicates 5 --audit 4

The serial-vs-sharded, resume and crash-recovery guarantees are pinned
by ``tests/test_sweep_scheduler.py``.

Exit codes: 0 on success, 1 on a determinism-audit mismatch, 2 on a
usage error (including a parameter the workload does not read, caught
before the first run), 3 when ``--strict`` is set and any run ended as
a structured failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Sequence

from .scheduler import print_progress, run_sweep
from .sink import audit_determinism
from .spec import SweepSpec
from .workloads import public_workloads


def parse_value(text: str) -> Any:
    """CLI literal -> int, float, bool, or string (in that order)."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    return text


def parse_grid(items: List[str]) -> Dict[str, List[Any]]:
    """Repeated ``--grid name=v1,v2,...`` flags -> the grid dict."""
    grid: Dict[str, List[Any]] = {}
    for item in items:
        name, _, values = item.partition("=")
        if not name or not values:
            raise ValueError(f"--grid expects name=v1,v2,..., got {item!r}")
        grid[name] = [parse_value(v) for v in values.split(",")]
    return grid


def parse_fixed(items: List[str]) -> Dict[str, Any]:
    """Repeated ``--fixed name=value`` flags -> the fixed-params dict."""
    fixed: Dict[str, Any] = {}
    for item in items:
        name, _, value = item.partition("=")
        if not name or not value:
            raise ValueError(f"--fixed expects name=value, got {item!r}")
        fixed[name] = parse_value(value)
    return fixed


def build_parser() -> argparse.ArgumentParser:
    """The ``repro sweep`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="sharded multiprocess experiment-sweep orchestrator",
    )
    parser.add_argument("--spec", help="JSON SweepSpec file (alternative to inline flags)")
    parser.add_argument("--workload", help="registered workload name (see --list-workloads)")
    parser.add_argument(
        "--grid", action="append", default=[], metavar="NAME=V1,V2,...",
        help="one grid dimension (repeatable); cartesian product over all",
    )
    parser.add_argument(
        "--fixed", action="append", default=[], metavar="NAME=VALUE",
        help="parameter merged into every point (repeatable)",
    )
    parser.add_argument("--name", help="sweep name (defaults to the workload name)")
    parser.add_argument("--replicates", type=int, default=1, help="seeds per grid point")
    parser.add_argument(
        "--audit", type=int, default=2, metavar="N",
        help="cross-shard determinism duplicates to schedule (default 2)",
    )
    parser.add_argument("--seed-salt", type=int, default=0, help="perturbs every derived seed")
    parser.add_argument(
        "--out", default="sweep_results.jsonl", metavar="PATH",
        help="JSONL result sink (default sweep_results.jsonl)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: CPU count; 1 = serial in-process)",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="per-run wall-time limit in sharded mode (default 600)",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="re-dispatches of a crashed/hung run before recording failure",
    )
    parser.add_argument(
        "--no-resume", action="store_true",
        help="re-run everything even if the sink already has results",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero if any run ended as a structured failure",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.add_argument(
        "--list-workloads", action="store_true", help="print registered workloads and exit"
    )
    return parser


def build_spec(args: argparse.Namespace) -> SweepSpec:
    """Resolve the spec from ``--spec`` or the inline flags."""
    if args.spec:
        spec = SweepSpec.from_file(args.spec)
        if args.workload or args.grid or args.fixed:
            raise ValueError("--spec and inline --workload/--grid/--fixed are exclusive")
        return spec
    if not args.workload:
        raise ValueError("either --spec or --workload is required")
    return SweepSpec(
        name=args.name or args.workload,
        workload=args.workload,
        grid=parse_grid(args.grid),
        fixed=parse_fixed(args.fixed),
        replicates=args.replicates,
        seed_salt=args.seed_salt,
        audit_duplicates=args.audit,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_workloads:
        for name in public_workloads():
            print(name)
        return 0
    try:
        spec = build_spec(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workers = args.workers if args.workers is not None else (os_cpu_count() or 1)
    total = len(spec.expand())
    if not args.quiet:
        print(
            f"sweep {spec.name!r} [{spec.spec_hash()}]: {total} runs "
            f"({len(spec.points())} points x {spec.replicates} replicates "
            f"+ {spec.audit_duplicates} audit) on {workers} worker(s) -> {args.out}"
        )
    records = run_sweep(
        spec,
        out_path=args.out,
        workers=workers,
        timeout_s=args.timeout,
        retries=args.retries,
        resume=not args.no_resume,
        progress=None if args.quiet else print_progress,
    )
    failed = [r for r in records if r["status"] != "ok"]
    audit = audit_determinism(records)
    if not args.quiet:
        print(
            f"done: {len(records) - len(failed)} ok, {len(failed)} failed; "
            f"audit {audit.pairs_checked} pairs, {len(audit.mismatches)} mismatches"
        )
        for record in failed:
            print(f"  FAILED {record['run_id']}: {record['error']}", file=sys.stderr)
    if not audit.ok:
        for mismatch in audit.mismatches:
            print(f"AUDIT MISMATCH: {mismatch}", file=sys.stderr)
        return 1
    if args.strict and failed:
        return 3
    return 0


def os_cpu_count() -> Optional[int]:
    """Seam for tests; plain :func:`os.cpu_count` otherwise."""
    import os

    return os.cpu_count()
