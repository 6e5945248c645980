"""Publishable text/markdown tables: from aggregates to conclusions.

The last rung of the pipeline: an :class:`AggregateResult` renders as
an aligned plain-text table (terminal) or a markdown table (docs/PR
bodies).  Formatting is deliberately deterministic
— sorted groups, fixed float formats — so golden-fixture tests can
byte-pin the output and tables regenerate identically across runs.

``campaign_table`` is the E2–E8 workhorse (one row per grid group per
metric, with the replicate CI).
"""

from __future__ import annotations

from typing import Any, List, Sequence

from .aggregate import AggregateResult


def _fmt(value: Any) -> str:
    """Deterministic cell formatting (6 significant digits for floats)."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.6g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Aligned plain-text table (numbers right-aligned, labels left)."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    def is_num(cell: str) -> bool:
        if cell == "-":
            return True
        try:
            float(cell.lstrip("±"))
            return True
        except ValueError:
            return False

    numeric = [
        bool(cells) and all(is_num(r[i]) for r in cells)
        for i in range(len(headers))
    ]

    def line(row: Sequence[str]) -> str:
        return "  ".join(
            cell.rjust(widths[i]) if numeric[i] else cell.ljust(widths[i])
            for i, cell in enumerate(row)
        ).rstrip()

    out = [line(list(headers)), line(["-" * w for w in widths])]
    out.extend(line(row) for row in cells)
    return "\n".join(out) + "\n"


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """The same rows as a GitHub-flavoured markdown table."""
    out = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    out.extend(
        "| " + " | ".join(_fmt(c) for c in row) + " |" for row in rows
    )
    return "\n".join(out) + "\n"


#: Headers of the campaign (grid-aggregate) table.
CAMPAIGN_HEADERS = (
    "group", "metric", "n", "failed", "mean", "ci", "lo", "hi", "min", "max",
)


def campaign_rows(
    result: AggregateResult, confidence: float = 0.95
) -> List[List[Any]]:
    """One row per (group, metric) with the replicate CI attached."""
    rows: List[List[Any]] = []
    for key in sorted(result.groups):
        group = result.groups[key]
        intervals = group.intervals(confidence)
        for metric in sorted(intervals):
            ci = intervals[metric]
            acc = group.metrics[metric]
            rows.append(
                [
                    key or "(all)",
                    metric,
                    ci.n,
                    group.failed,
                    ci.mean,
                    f"±{_fmt(ci.half_width)}",
                    ci.lo,
                    ci.hi,
                    acc.min,
                    acc.max,
                ]
            )
    return rows


def campaign_table(
    result: AggregateResult, confidence: float = 0.95, markdown: bool = False
) -> str:
    """The grid-aggregate table of one campaign aggregation."""
    render = markdown_table if markdown else format_table
    return render(CAMPAIGN_HEADERS, campaign_rows(result, confidence))

