"""Unit tests for the ``python -m repro`` demo entry point."""

from __future__ import annotations

import pathlib

import pytest

from repro.__main__ import SUBCOMMANDS, main

REPO = pathlib.Path(__file__).resolve().parent.parent
CAMPAIGN = REPO / "tests" / "data" / "analyze_fixtures" / "campaign.jsonl"


class TestCli:
    def test_default_run_succeeds(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "MATCH" in out
        assert "labeled regions" in out

    def test_custom_side(self, capsys):
        assert main(["8"]) == 0
        out = capsys.readouterr().out
        assert "8x8" in out

    def test_custom_threshold(self, capsys):
        assert main(["8", "99.0"]) == 0  # no regions, still correct
        out = capsys.readouterr().out
        assert "0 regions" in out

    def test_rejects_non_power_of_two(self, capsys):
        assert main(["6"]) == 2
        err = capsys.readouterr().err
        assert "power of two" in err

    @pytest.mark.parametrize("side", ["0", "-1", "-4"])
    def test_rejects_non_positive_side(self, side, capsys):
        # 0 & -1 == 0 would slip a bare power-of-two check
        assert main([side]) == 2
        err = capsys.readouterr().err
        assert "power of two" in err
        assert f"got {side}" in err

    @pytest.mark.parametrize(
        "argv",
        [["bogus"], ["8", "abc"], ["faults"], ["bench"]],
        ids=[
            "unknown-subcommand",
            "non-numeric-threshold",
            "removed-subcommand",
            "removed-bench-subcommand",
        ],
    )
    def test_unknown_input_prints_one_usage_line(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: python -m repro") and err.count("\n") == 1
        for name in SUBCOMMANDS:
            assert name in err

    @pytest.mark.parametrize(
        "argv", [["serve", "x"], ["partition", "8", "two"]], ids=["serve", "partition"]
    )
    def test_subcommand_rejects_non_numeric_argument(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: python -m repro {argv[0]}")

    # The demos' printed fingerprints are pinned: between them they run
    # the failover, link-model, serving and shard paths end to end.

    def test_scenario_demo_matches_across_modes(self, capsys):
        assert main(["scenario"]) == 0
        out = capsys.readouterr().out
        assert (
            "run                  : 1690 tx, 9582 events, "
            "fingerprint 0ed016970528559e\n"
        ) in out
        assert "link model faded     : 27303 frames\n" in out
        assert out.count("fingerprint 0ed016970528559e") == 1

    def test_partition_demo_matches_across_modes(self, capsys):
        assert main(["partition", "8", "2"]) == 0
        out = capsys.readouterr().out
        assert "serial == partitioned: MATCH" in out
        assert out.count("fingerprint 0a323378113feba4") == 2

    def test_serve_demo_fingerprint(self, capsys):
        assert main(["serve"]) == 0
        out = capsys.readouterr().out
        assert "served 12 queries (12 complete) over 6 rounds" in out
        assert "engine fingerprint   : 3f1591fb130b1e0b" in out

    def test_sweep_subcommand_dispatches(self, capsys):
        assert main(["sweep", "--list-workloads"]) == 0
        out = capsys.readouterr().out
        assert sorted(out.split()) == ["churn", "e1", "regions", "serve", "storm"]

    def test_analyze_without_a_sink_has_nothing_to_do(self, capsys):
        assert main(["analyze"]) == 2
        err = capsys.readouterr().err
        assert err == "nothing to do: no --sink given\n"

    def test_analyze_subcommand_prints_the_campaign_table(self, capsys):
        assert main(["analyze", "--sink", str(CAMPAIGN), "--by", "loss"]) == 0
        out = capsys.readouterr().out
        assert "deliveries_per_s" in out
        assert (
            "campaign: 2 group(s) from 1 file(s) — 9 record(s) read, "
            "0 torn line(s) repaired\n"
        ) in out
        assert "memo" not in out

    @pytest.mark.parametrize(
        "name,reason",
        [("nope.jsonl", "no such sink file"), (".", "not a regular file")],
        ids=["missing", "directory"],
    )
    def test_analyze_missing_sink_is_a_usage_error(
        self, tmp_path, capsys, name, reason
    ):
        sink = tmp_path / name
        assert main(["analyze", "--sink", str(sink)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {sink}: {reason}\n"
        assert captured.out == ""

    def test_analyze_discloses_skipped_non_run_records(self, tmp_path, capsys):
        sink = tmp_path / "campaign.jsonl"
        sink.write_text(CAMPAIGN.read_text() + '{"kind": "heartbeat"}\n')
        assert main(["analyze", "--sink", str(sink), "--by", "loss"]) == 0
        assert (
            "campaign: 2 group(s) from 1 file(s) — 9 record(s) read, "
            "0 torn line(s) repaired, 1 non-run record(s) skipped\n"
        ) in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--summary", "X"],
            ["analyze", "--sink", str(CAMPAIGN), "--no-cache"],
            ["analyze", "--sink", str(CAMPAIGN), "--cache-dir", "D"],
        ],
        ids=["sweep-summary", "analyze-no-cache", "analyze-cache-dir"],
    )
    def test_removed_flags_are_unrecognized(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_subcommand_runs_demo(self, capsys):
        assert main(["serve", "4", "6"]) == 0
        out = capsys.readouterr().out
        assert "deployed stack" in out
        assert "served 6 queries (6 complete)" in out
        assert "engine fingerprint" in out

    def test_serve_demo_is_deterministic(self, capsys):
        assert main(["serve", "4", "6"]) == 0
        first = capsys.readouterr().out
        assert main(["serve", "4", "6"]) == 0
        assert capsys.readouterr().out == first
