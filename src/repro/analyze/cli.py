"""The ``python -m repro analyze`` subcommand.

``--sink results.jsonl`` (repeatable) runs the group-by over the named
sweep sinks and prints the campaign table with replicate confidence
intervals (``--by loss,side`` picks the axes, ``--workload``/``--metrics``
filter, ``--markdown`` switches the rendering).

The acceptance contracts are pinned by ``tests/test_analyze_*.py``.
Exit codes: 0 ok; 1 audit mismatches; 2 usage/ingest errors (including
no ``--sink`` and a ``--sink`` path that is not an existing regular
file).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence, Tuple

from .aggregate import GroupQuery, aggregate_sinks
from .ingest import AnalyzeError
from .stats import SUPPORTED_CONFIDENCES
from .tables import campaign_table


def build_parser() -> argparse.ArgumentParser:
    """The ``repro analyze`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro analyze",
        description="campaign analytics: aggregation and "
        "confidence intervals over sweep sinks",
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
    result = aggregate_sinks(args.sink, query)
    if not args.quiet:
        print(campaign_table(result, args.confidence, markdown=args.markdown))
        records = sum(len(src.records) for src in result.sources)
        skipped = result.skipped_kinds
        print(
            f"campaign: {len(result.groups)} group(s) from "
            f"{len(result.sources)} file(s) — {records} record(s) read, "
            f"{result.torn_lines} torn line(s) repaired"
            + (f", {skipped} non-run record(s) skipped" if skipped else "")
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if not args.sink:
        print("nothing to do: no --sink given", file=sys.stderr)
        return 2
    try:
        return _run_campaign(args)
    except AnalyzeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
