"""Unit tests for the ``python -m repro sweep`` command-line surface."""

from __future__ import annotations

import inspect
import json
import re

import pytest

from repro.sweep.cli import build_parser, build_spec, main, parse_grid, parse_value
from repro.sweep.workloads import WORKLOAD_PARAMS, WORKLOADS


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("4", 4),
            ("-2", -2),
            ("0.25", 0.25),
            ("1e-3", 1e-3),
            ("true", True),
            ("False", False),
            ("storm", "storm"),
        ],
    )
    def test_parse_value(self, text, expected):
        value = parse_value(text)
        assert value == expected
        assert type(value) is type(expected)

    def test_parse_grid(self):
        grid = parse_grid(["side=4,8", "loss=0.0,0.1", "rotate=true,false"])
        assert grid == {
            "side": [4, 8],
            "loss": [0.0, 0.1],
            "rotate": [True, False],
        }

    @pytest.mark.parametrize("bad", ["side", "=4", "side="])
    def test_parse_grid_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_grid([bad])

    def test_build_spec_from_inline_flags(self):
        args = build_parser().parse_args(
            ["--workload", "storm", "--grid", "loss=0.0,0.1",
             "--fixed", "side=4", "--replicates", "3", "--audit", "1"]
        )
        spec = build_spec(args)
        assert spec.workload == "storm"
        assert spec.grid == {"loss": [0.0, 0.1]}
        assert spec.fixed == {"side": 4}
        assert spec.replicates == 3
        assert spec.audit_duplicates == 1
        assert spec.name == "storm"  # defaults to the workload

    def test_build_spec_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "filed", "workload": "storm", "grid": {"loss": [0.0]},
        }))
        args = build_parser().parse_args(["--spec", str(path)])
        assert build_spec(args).name == "filed"

    def test_spec_file_and_inline_flags_are_exclusive(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"name": "x", "workload": "storm"}))
        args = build_parser().parse_args(
            ["--spec", str(path), "--workload", "storm"]
        )
        with pytest.raises(ValueError):
            build_spec(args)


class TestMain:
    def test_list_workloads(self, capsys):
        assert main(["--list-workloads"]) == 0
        names = capsys.readouterr().out.split()
        assert names == sorted(names)
        assert {"churn", "e1", "regions", "storm"} <= set(names)
        assert not any(n.startswith("_") for n in names)

    def test_missing_workload_is_usage_error(self, capsys):
        assert main(["--grid", "side=4"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,keys",
        [
            (["--fixed", "los=0.2"], "['los']"),
            (["--grid", "partitions=1,2", "--fixed", "wir=true"],
             "['partitions', 'wir']"),
        ],
        ids=["los", "partitions"],
    )
    def test_parameter_the_workload_does_not_read_is_usage_error(
        self, tmp_path, capsys, flags, keys
    ):
        out = tmp_path / "runs.jsonl"
        argv = ["--workload", "e1", "--grid", "side=4", *flags,
                "--workers", "1", "--audit", "0", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: workload 'e1' does not read parameter(s) {keys}"
        )
        assert captured.out == "" and not out.exists()

    def test_every_parameter_a_workload_reads_is_registered(self):
        for name, fn in WORKLOADS.items():
            read = set(re.findall(r'params\.get\(\s*"(\w+)"', inspect.getsource(fn)))
            assert read <= WORKLOAD_PARAMS[name], (name, read - WORKLOAD_PARAMS[name])
            assert WORKLOAD_PARAMS[name] - read <= {"seed"}, name

    def test_unreadable_spec_file_is_usage_error(self, tmp_path, capsys):
        assert main(["--spec", str(tmp_path / "missing.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_tiny_sweep_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "runs.jsonl"
        code = main([
            "--workload", "storm", "--grid", "loss=0.0",
            "--fixed", "side=4", "--fixed", "n_random=70",
            "--fixed", "rounds=2", "--audit", "0",
            "--workers", "1", "--out", str(out), "--quiet",
        ])
        assert code == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["status"] == "ok"

    def test_resume_short_circuits_a_completed_sweep(self, tmp_path, capsys):
        out = tmp_path / "runs.jsonl"
        argv = [
            "--workload", "storm", "--grid", "loss=0.0",
            "--fixed", "side=4", "--fixed", "n_random=70",
            "--fixed", "rounds=2", "--audit", "0",
            "--workers", "1", "--out", str(out), "--quiet",
        ]
        assert main(argv) == 0
        size_after_first = out.stat().st_size
        assert main(argv) == 0  # everything already in the sink
        assert out.stat().st_size == size_after_first

    def test_strict_flag_fails_on_structured_failures(self, tmp_path, capsys):
        argv = [
            "--workload", "_fail", "--audit", "0",
            "--workers", "1", "--retries", "0",
            "--out", str(tmp_path / "runs.jsonl"), "--quiet",
        ]
        assert main(argv + ["--strict"]) == 3
        assert "FAILED" not in capsys.readouterr().out  # quiet stays quiet
        # without --strict the failure is recorded but exit stays 0
        assert main(argv + ["--no-resume"]) == 0
