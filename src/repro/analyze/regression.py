"""Trajectory regression detection over BENCH/SWEEP histories.

Every ``BENCH_*.json`` run entry is one commit's measurement of the same
seeded workloads; a perf or fidelity regression shows up as the *latest*
entry falling out of the recorded distribution.  :func:`detect_regressions`
applies two rules to each tracked series:

* the **floor rule** — the existing :data:`repro.bench.NO_REGRESSION_FLOOR`
  semantics: the latest value must be at least ``floor`` (0.85) times the
  best value ever recorded for that series;
* the **CI-overlap rule** — the latest value must lie above the lower
  bound of the one-new-observation prediction interval of the historical
  values (:func:`repro.analyze.stats.prediction_interval_lower`, 99% by
  default): a new point below it is statistically inconsistent with the
  trajectory even when it clears the floor.  The interval is fitted on
  log rates and exponentiated back, so the bound is always positive: on
  raw rates one slow early entry widens it past zero, where it can never
  fire.

Only the series in :data:`repro.bench.TRAJECTORY_GATES` can produce
findings — those are the stable, machine-comparable hot paths the bench
harness already floors.  Every other numeric rate in the trajectory
(including the per-``side`` E1 rows, whose sub-100ms wall clocks swing
wildly across runner hardware) is evaluated and *reported* with the same
numbers but marked ``watch`` so drift is visible without false alarms.

The output is machine-readable (``ANALYZE_report.json``, deliberately
timestamp-free so a re-run over unchanged inputs is byte-identical) plus
a human table naming the offending workload/axis and metric.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..bench import NO_REGRESSION_FLOOR, TRAJECTORY_GATES
from .stats import Accumulator, prediction_interval_lower

#: Version tag of the ANALYZE_report.json layout.
REPORT_SCHEMA = 1

#: Confidence of the prediction-interval (CI-overlap) rule.
PI_CONFIDENCE = 0.99

#: Minimum historical points before the CI rule can fire.
MIN_HISTORY = 3


@dataclass(frozen=True)
class SeriesCheck:
    """The verdict on one (workload/axis, metric) trajectory series."""

    bench: str
    workload: str
    metric: str
    gated: bool
    commit: str
    value: float
    n_history: int
    best: Optional[float] = None
    ratio_vs_best: Optional[float] = None
    pi_lower: Optional[float] = None
    rules_violated: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True iff no gated rule fired on this series."""
        return not (self.gated and self.rules_violated)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (one ``checked`` row of the report)."""
        return {
            "bench": self.bench,
            "workload": self.workload,
            "metric": self.metric,
            "gated": self.gated,
            "commit": self.commit,
            "value": self.value,
            "n_history": self.n_history,
            "best": self.best,
            "ratio_vs_best": self.ratio_vs_best,
            "pi_lower": self.pi_lower,
            "rules_violated": list(self.rules_violated),
            "status": (
                "regression" if (self.gated and self.rules_violated)
                else ("drift" if self.rules_violated else "ok")
            ),
        }


@dataclass
class RegressionReport:
    """Machine-readable outcome of one trajectory regression pass."""

    checked: List[SeriesCheck] = field(default_factory=list)
    floor: float = NO_REGRESSION_FLOOR
    confidence: float = PI_CONFIDENCE

    @property
    def findings(self) -> List[SeriesCheck]:
        """Gated series with at least one violated rule (the failures)."""
        return [c for c in self.checked if c.gated and c.rules_violated]

    @property
    def drift(self) -> List[SeriesCheck]:
        """Watch-only series whose rules fired (visible, never fatal)."""
        return [c for c in self.checked if not c.gated and c.rules_violated]

    @property
    def ok(self) -> bool:
        """True iff no gated series regressed."""
        return not self.findings

    def to_dict(self) -> Dict[str, Any]:
        """The ``ANALYZE_report.json`` document (timestamp-free)."""
        return {
            "schema": REPORT_SCHEMA,
            "floor": self.floor,
            "confidence": self.confidence,
            "ok": self.ok,
            "findings": [c.to_dict() for c in self.findings],
            "drift": [c.to_dict() for c in self.drift],
            "checked": [c.to_dict() for c in self.checked],
        }


def _flatten_workloads(
    workloads: Mapping[str, Any]
) -> Dict[str, Dict[str, float]]:
    """One run entry's workloads -> flat ``label -> {metric: value}`` rows.

    Dict-valued workloads (the micro suite) keep their name; list-valued
    workloads (the E1 suites) become one labelled row per axis point,
    e.g. ``e1_deployed_scaling[side=8]`` — which is how a finding names
    the exact offending workload *and* axis.
    """
    AXES = ("side", "partitions")
    rows: Dict[str, Dict[str, float]] = {}
    for name, value in workloads.items():
        if isinstance(value, Mapping):
            rows[name] = {
                k: float(v)
                for k, v in value.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            }
        elif isinstance(value, list):
            for row in value:
                if not isinstance(row, Mapping):
                    continue
                axis = ",".join(
                    f"{a}={row[a]}" for a in AXES if a in row
                )
                label = f"{name}[{axis}]" if axis else name
                rows[label] = {
                    k: float(v)
                    for k, v in row.items()
                    if k not in AXES
                    and isinstance(v, (int, float))
                    and not isinstance(v, bool)
                }
    return rows


def _series(
    runs: Sequence[Mapping[str, Any]]
) -> Dict[Tuple[str, str], List[Tuple[str, float]]]:
    """All ``(label, metric) -> [(commit, value), ...]`` rate series.

    Only ``*_per_s`` rates are tracked: counters are pinned by the
    determinism fingerprints, and raw wall clocks are redundant with
    their rates.
    """
    series: Dict[Tuple[str, str], List[Tuple[str, float]]] = {}
    for run in runs:
        commit = str(run.get("commit", "unknown"))
        for label, row in _flatten_workloads(run.get("workloads", {})).items():
            for metric, value in row.items():
                if metric.endswith("_per_s"):
                    series.setdefault((label, metric), []).append((commit, value))
    return series


def _gated(label: str, metric: str) -> bool:
    """True iff a flattened (workload label, metric) series is gated."""
    workload = label.split("[", 1)[0]
    return (workload, metric) in TRAJECTORY_GATES


def detect_regressions(
    runs: Sequence[Mapping[str, Any]],
    bench: str,
    floor: float = NO_REGRESSION_FLOOR,
    confidence: float = PI_CONFIDENCE,
) -> List[SeriesCheck]:
    """Check the latest run of one trajectory against its history.

    Needs at least two entries (a latest and one historical point);
    shorter trajectories produce no checks.  Series that first appear in
    the latest entry have no history and are skipped the same way.
    """
    if len(runs) < 2:
        return []
    latest_commit = str(runs[-1].get("commit", "unknown"))
    checks: List[SeriesCheck] = []
    for (label, metric), points in sorted(_series(runs).items()):
        history = [v for c, v in points if c != latest_commit]
        latest = [v for c, v in points if c == latest_commit]
        if not latest or not history:
            continue
        value = latest[-1]
        best = max(history)
        ratio = value / best if best > 0 else None
        pi_lower = None
        if len(history) >= MIN_HISTORY and min(history) > 0:
            log_lower = prediction_interval_lower(
                Accumulator().add_all(math.log(v) for v in history), confidence
            )
            if log_lower is not None:
                pi_lower = math.exp(log_lower)
        violated: List[str] = []
        if ratio is not None and ratio < floor:
            violated.append("floor")
        if pi_lower is not None and value < pi_lower:
            violated.append("ci")
        checks.append(
            SeriesCheck(
                bench=bench,
                workload=label,
                metric=metric,
                gated=_gated(label, metric),
                commit=latest_commit,
                value=value,
                n_history=len(history),
                best=best,
                ratio_vs_best=ratio,
                pi_lower=pi_lower,
                rules_violated=tuple(violated),
            )
        )
    return checks


def analyze_trajectories(
    docs: Sequence[Tuple[str, Sequence[Mapping[str, Any]]]],
    floor: float = NO_REGRESSION_FLOOR,
    confidence: float = PI_CONFIDENCE,
) -> RegressionReport:
    """Run :func:`detect_regressions` over several ``(bench, runs)`` docs."""
    report = RegressionReport(floor=floor, confidence=confidence)
    for bench, runs in docs:
        report.checked.extend(
            detect_regressions(runs, bench, floor=floor, confidence=confidence)
        )
    return report


def write_report(path: str, report: RegressionReport) -> None:
    """Write ``ANALYZE_report.json`` (sorted keys, byte-stable re-runs)."""
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
