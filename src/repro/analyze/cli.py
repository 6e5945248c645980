"""The ``python -m repro analyze`` subcommand.

Two modes, composable in one invocation:

* **campaign aggregation** — ``--sink results.jsonl`` (repeatable) runs
  the memoized group-by over the named sweep sinks and prints the
  campaign table with replicate confidence intervals (``--by loss,side``
  picks the axes, ``--workload``/``--metrics`` filter, ``--markdown``
  switches the rendering);
* **trajectory regression** — with ``--bench-dir`` (default ``.``) the
  committed ``BENCH_micro.json`` / ``BENCH_e1.json`` trajectories are
  checked for regressions (floor + CI-overlap rules), the E1/micro
  tables are printed, and the machine-readable verdict is written to
  ``--report`` (default ``ANALYZE_report.json``).

The acceptance contracts are pinned by ``tests/test_analyze_*.py``.
Exit codes: 0 ok; 1 regression findings or audit mismatches; 2
usage/ingest errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence, Tuple

from .aggregate import GroupQuery
from .cache import MemoizedAggregator
from .ingest import AnalyzeError, ingest_trajectory
from .regression import analyze_trajectories, write_report
from .stats import SUPPORTED_CONFIDENCES
from .tables import campaign_table, e1_table, micro_table, regression_table

#: The trajectory artifacts the regression pass looks for by default.
BENCH_FILES = (("BENCH_micro.json", "micro"), ("BENCH_e1.json", "e1"))


def build_parser() -> argparse.ArgumentParser:
    """The ``repro analyze`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro analyze",
        description="campaign analytics: memoized aggregation, confidence "
        "intervals, trajectory regression detection",
    )
    parser.add_argument(
        "--sink", action="append", default=[], metavar="PATH",
        help="sweep JSONL sink to aggregate (repeatable)",
    )
    parser.add_argument(
        "--by", default=None, metavar="AXIS1,AXIS2",
        help="grid axes to group on (default: every parameter)",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="M1,M2",
        help="metrics to summarize (default: all numeric)",
    )
    parser.add_argument("--workload", default=None, help="restrict to one workload")
    parser.add_argument(
        "--confidence", type=float, default=0.95,
        choices=list(SUPPORTED_CONFIDENCES),
        help="CI level for the campaign table (default 0.95)",
    )
    parser.add_argument(
        "--cache-dir", default=".analyze_cache", metavar="DIR",
        help="memo directory keyed by (file sha256, query) "
        "(default .analyze_cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the disk memo (every record re-read)",
    )
    parser.add_argument(
        "--bench-dir", default=".", metavar="DIR",
        help="directory holding BENCH_*.json trajectories (default .)",
    )
    parser.add_argument(
        "--no-regression", action="store_true",
        help="skip the trajectory regression pass",
    )
    parser.add_argument(
        "--report", default="ANALYZE_report.json", metavar="PATH",
        help="machine-readable regression report (default ANALYZE_report.json)",
    )
    parser.add_argument(
        "--no-report", action="store_true", help="do not write the report file"
    )
    parser.add_argument(
        "--markdown", action="store_true", help="render markdown tables"
    )
    parser.add_argument("--quiet", action="store_true", help="suppress tables")
    return parser


def _split(text: Optional[str]) -> Optional[Tuple[str, ...]]:
    if text is None:
        return None
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    return parts or None


def _run_campaign(args: argparse.Namespace) -> int:
    query = GroupQuery(
        by=_split(args.by), metrics=_split(args.metrics), workload=args.workload
    )
    aggregator = MemoizedAggregator(
        cache_dir=None if args.no_cache else args.cache_dir
    )
    result = aggregator.aggregate(args.sink, query)
    if not args.quiet:
        print(campaign_table(result, args.confidence, markdown=args.markdown))
        stats = result.stats
        print(
            f"campaign: {len(result.groups)} group(s) from {stats.files} "
            f"file(s) — {stats.hits} memo hit(s), {stats.misses} miss(es), "
            f"{stats.records_read} record(s) read, "
            f"{result.torn_lines} torn line(s) repaired"
        )
        for dup in result.duplicates:
            print(
                f"  note: {dup['run_id']} recorded {dup['count']}x "
                f"(counted once; fingerprints "
                f"{'agree' if dup['fingerprints_agree'] else 'DISAGREE'})"
            )
    if result.audit_mismatches:
        for mismatch in result.audit_mismatches:
            print(f"AUDIT MISMATCH: {mismatch}", file=sys.stderr)
        return 1
    return 0


def _run_regression(args: argparse.Namespace) -> int:
    docs: List[Tuple[str, Sequence]] = []
    for filename, bench in BENCH_FILES:
        path = os.path.join(args.bench_dir, filename)
        if os.path.exists(path):
            doc = ingest_trajectory(path, expect_bench=bench)
            docs.append((doc.bench, doc.runs))
    if not docs:
        print(f"no BENCH_*.json trajectories under {args.bench_dir!r}")
        return 0
    report = analyze_trajectories(docs)
    if not args.quiet:
        by_bench = dict(docs)
        if "e1" in by_bench:
            print("E1 deployed scaling (latest recorded run):")
            print(e1_table(by_bench["e1"], markdown=args.markdown))
        if "micro" in by_bench:
            print("micro-suite rates (latest vs best recorded):")
            print(micro_table(by_bench["micro"], markdown=args.markdown))
        print("trajectory regression checks:")
        print(regression_table(report, markdown=args.markdown))
    if not args.no_report:
        write_report(args.report, report)
        if not args.quiet:
            print(f"wrote {args.report}")
    if not report.ok:
        for check in report.findings:
            print(
                f"REGRESSION: {check.bench}:{check.workload}.{check.metric} "
                f"= {check.value:.6g} (best {check.best:.6g}, "
                f"rules: {', '.join(check.rules_violated)})",
                file=sys.stderr,
            )
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        code = 0
        if args.sink:
            code = _run_campaign(args)
        if not args.no_regression:
            code = max(code, _run_regression(args))
        if not args.sink and args.no_regression:
            print("nothing to do: no --sink and --no-regression", file=sys.stderr)
            return 2
        return code
    except AnalyzeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
