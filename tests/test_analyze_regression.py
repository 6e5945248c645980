"""Trajectory regression detection (`repro.analyze.regression`).

The detector must name the exact offending workload *and* metric when a
gated trajectory degrades (floor and/or CI-overlap rule), must never fire
on flat-but-noisy history, and must degrade ungated series to ``drift``
(visible, non-fatal) — the behaviour the CI ``analyze`` job relies on to
pass clean over the real committed ``BENCH_*.json`` artifacts.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analyze.regression import (
    MIN_HISTORY,
    RegressionReport,
    analyze_trajectories,
    detect_regressions,
    write_report,
)
from repro.analyze.tables import regression_table
from repro.bench import NO_REGRESSION_FLOOR, TRAJECTORY_GATES

GATED_WORKLOAD, GATED_METRIC = TRAJECTORY_GATES[0]

REPO = os.path.join(os.path.dirname(__file__), "..")


def trajectory(values, workload=GATED_WORKLOAD, metric=GATED_METRIC):
    """A synthetic BENCH-style trajectory, one commit per value."""
    return [
        {
            "commit": f"c{i}",
            "date": None,
            "workloads": {workload: {metric: v, "wall_s": 1.0}},
        }
        for i, v in enumerate(values)
    ]


class TestDetection:
    def test_degrading_trajectory_flagged_with_exact_name(self):
        checks = detect_regressions(
            trajectory([1000.0, 1010.0, 990.0, 1005.0, 995.0, 500.0]), "micro"
        )
        (finding,) = [c for c in checks if c.gated and c.rules_violated]
        assert finding.workload == GATED_WORKLOAD
        assert finding.metric == GATED_METRIC
        assert finding.commit == "c5"
        assert set(finding.rules_violated) == {"floor", "ci"}
        assert not finding.ok
        assert finding.ratio_vs_best == pytest.approx(500.0 / 1010.0)

    def test_flat_noisy_trajectory_no_false_positive(self):
        values = [1000.0, 980.0, 1020.0, 995.0, 1010.0, 990.0, 1005.0]
        report = analyze_trajectories([("micro", trajectory(values))])
        assert report.ok and not report.findings and not report.drift
        (check,) = report.checked
        assert check.rules_violated == ()

    def test_ci_rule_fires_below_floor_threshold(self):
        """A drop too small for the 0.85x floor still trips the 99% PI."""
        values = [1000.0, 1001.0, 999.0, 1000.5, 999.5, 900.0]
        checks = detect_regressions(trajectory(values), "micro")
        (check,) = checks
        assert 900.0 / 1001.0 > NO_REGRESSION_FLOOR  # the floor does NOT fire
        assert check.rules_violated == ("ci",)
        assert not check.ok

    def test_floor_rule_fires_alone_on_wide_history(self):
        """A deep drop inside a wide-variance history trips only the floor."""
        values = [1000.0, 400.0, 1600.0, 700.0, 1300.0, 800.0]
        (check,) = detect_regressions(trajectory(values), "micro")
        assert check.rules_violated == ("floor",)
        # fitted on log rates, the bound of a wide history stays positive
        assert 0 < check.pi_lower < min(values)

    def test_ungated_series_degrades_to_drift(self):
        values = [1000.0, 1010.0, 990.0, 1005.0, 995.0, 500.0]
        report = analyze_trajectories(
            [("micro", trajectory(values, workload="timer_storm"))]
        )
        assert report.ok  # drift is visible, never fatal
        assert not report.findings
        (drifting,) = report.drift
        assert drifting.workload == "timer_storm"
        assert drifting.rules_violated  # the same rules fired, ungated

    def test_short_history_skips_ci_rule(self):
        values = [1000.0] * MIN_HISTORY  # history is MIN_HISTORY - 1 points
        (check,) = detect_regressions(trajectory(values + [500.0])[-3:], "micro")
        assert check.pi_lower is None
        assert check.rules_violated == ("floor",)

    def test_single_entry_trajectory_produces_no_checks(self):
        assert detect_regressions(trajectory([1000.0]), "micro") == []
        assert detect_regressions([], "micro") == []

    def test_series_new_in_latest_entry_is_skipped(self):
        runs = trajectory([1000.0, 1005.0])
        runs[-1]["workloads"]["brand_new"] = {"things_per_s": 1.0}
        labels = {c.workload for c in detect_regressions(runs, "micro")}
        assert "brand_new" not in labels

    def test_e1_axis_rows_named_with_axis(self):
        runs = [
            {
                "commit": f"c{i}",
                "workloads": {
                    "e1_deployed_scaling": [
                        {"side": 8, "n_nodes": 100, "tx_per_s": v},
                        {"side": 16, "n_nodes": 400, "tx_per_s": v * 2},
                    ]
                },
            }
            for i, v in enumerate([1000.0, 990.0, 1010.0, 400.0])
        ]
        checks = detect_regressions(runs, "e1")
        labels = {c.workload for c in checks}
        assert labels == {
            "e1_deployed_scaling[side=8]",
            "e1_deployed_scaling[side=16]",
        }
        assert all(not c.gated for c in checks)  # E1 rows are watch-only
        report = RegressionReport(checked=checks)
        assert report.ok and report.drift  # degraded, visible, not fatal

    def test_non_rate_metrics_ignored(self):
        runs = trajectory([1000.0, 500.0])
        for run in runs:
            run["workloads"][GATED_WORKLOAD]["deliveries"] = 12345
        metrics = {c.metric for c in detect_regressions(runs, "micro")}
        assert metrics == {GATED_METRIC}


class TestReport:
    def test_report_json_is_byte_stable_and_names_findings(self, tmp_path):
        docs = [
            ("micro", trajectory([1000.0, 1010.0, 990.0, 1005.0, 995.0, 500.0]))
        ]
        report = analyze_trajectories(docs)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        write_report(str(first), report)
        write_report(str(second), analyze_trajectories(docs))
        assert first.read_bytes() == second.read_bytes()
        doc = json.loads(first.read_text())
        assert doc["ok"] is False
        (finding,) = doc["findings"]
        assert finding["workload"] == GATED_WORKLOAD
        assert finding["metric"] == GATED_METRIC
        assert finding["status"] == "regression"

    def test_table_names_the_finding_first(self):
        report = analyze_trajectories(
            [
                ("micro", trajectory([1000.0, 1010.0, 990.0, 1005.0, 995.0, 500.0])),
                ("micro2", trajectory([1000.0, 1001.0, 999.0, 1000.0])),
            ]
        )
        table = regression_table(report)
        lines = table.splitlines()
        assert "REGRESSION(floor,ci)" in lines[2]  # findings sort first
        assert GATED_WORKLOAD in lines[2] and GATED_METRIC in lines[2]

    def test_committed_artifacts_pass_clean(self):
        """The real BENCH_*.json trajectories must not trip the gates."""
        report = analyze_trajectories(committed_docs())
        assert report.ok, [c.to_dict() for c in report.findings]
        assert len(report.checked) >= 4

    def test_committed_storm_bound_can_fire(self):
        """One slow early storm entry spreads the raw-rate history so far
        that its 99% bound was negative (about -413k deliveries/s): no
        measurement could ever fall below it.  Every fitted bound on the
        committed trajectories must be a rate a regression can undercut."""
        checks = analyze_trajectories(committed_docs()).checked
        (storm,) = [
            c for c in checks
            if (c.workload, c.metric) == ("medium_broadcast_storm", "deliveries_per_s")
        ]
        assert storm.gated and storm.pi_lower > 0
        bounds = [c.pi_lower for c in checks if c.pi_lower is not None]
        assert bounds and min(bounds) > 0


def committed_docs():
    """The repository's own ``(bench, runs)`` trajectories."""
    from repro.analyze.ingest import ingest_trajectory

    docs = []
    for filename, bench in (("BENCH_micro.json", "micro"), ("BENCH_e1.json", "e1")):
        path = os.path.join(REPO, filename)
        if os.path.exists(path):
            doc = ingest_trajectory(path, expect_bench=bench)
            docs.append((doc.bench, doc.runs))
    if not docs:
        pytest.skip("no committed BENCH_*.json artifacts")
    return docs
