"""Tests of the benchmark itself, on tiny worlds.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import harness  # noqa: E402
import workloads  # noqa: E402
from harness import END_TO_END_UNITS, PER_LAYER_UNITS, run_benchmark  # noqa: E402

TINY = {
    "storm": {"side": 4, "n_random": 60},
    "e1_round": {"side": 4},
    "serve_mixed": {"side": 4, "chunk": 8},
}
LAYERS = {
    "deployment", "runtime.topology_emulation", "runtime.binding", "core.synthesis",
    "simulator.engine", "simulator.network", "simulator.process", "runtime.routing",
    "runtime.wire", "core.program", "serve.admission", "serve.engine", "python.gc",
}


def tiny_run(name, trace=False, seed=3, **kwargs):
    return run_benchmark(
        name, seed, seconds=0.0, trace=trace, world_kwargs=TINY[name], min_cycles=2, **kwargs
    )


@pytest.fixture(scope="module")
def untraced():
    return {name: tiny_run(name) for name in TINY}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("spans")
    runs = {}
    for name in TINY:
        path = str(out / f"{name}.jsonl")
        runs[name] = (tiny_run(name, trace=True, span_path=path), path)
    return runs


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_every_metric_is_reported(untraced, name):
    result = untraced[name]
    assert result["correct"], result["detail"]["errors"]
    assert result["failed"] == 0
    assert result["attempted"] == 2 * workloads.WORKLOADS[name].cycle_ops
    assert set(result["metrics"]) == set(END_TO_END_UNITS)
    assert all(value > 0 for value in result["metrics"].values()), result["metrics"]


def _plant_storm(result):
    result.answer += 1


def _plant_e1(result):
    result.answer = [result.answer[0] + 1]


def _plant_serve(result):
    cell, tenant, *_ = result.answer[0]
    result.answer[0] = (cell, tenant, "ok", -1)


@pytest.mark.parametrize(
    "name, plant",
    [("storm", _plant_storm), ("e1_round", _plant_e1), ("serve_mixed", _plant_serve)],
)
def test_planted_wrong_answer_counts_as_failed(monkeypatch, name, plant):
    cls = workloads.WORKLOADS[name]
    observe = cls.observe

    def wrong(self, i, snap, raw):
        result = observe(self, i, snap, raw)
        if i == 1:
            plant(result)
        return result

    monkeypatch.setattr(cls, "observe", wrong)
    result = tiny_run(name)
    assert not result["correct"]
    assert result["failed"] == 2  # op 1 of each of the two cycles
    assert result["attempted"] == 2 * cls.cycle_ops


def test_raising_op_counts_as_failed(monkeypatch):
    def boom(self, i):
        raise RuntimeError("planted")

    monkeypatch.setattr(workloads.Storm, "op", boom)
    result = tiny_run("storm")
    assert not result["correct"]
    assert result["failed"] == 2 and result["attempted"] == 2


@pytest.mark.parametrize("name", sorted(TINY))
def test_layer_self_times_add_back_to_op_wall_time(traced, name):
    result, _ = traced[name]
    assert result["correct"], result["detail"]["errors"]
    assert set(result["metrics"]) == set(PER_LAYER_UNITS)
    assert 0.97 <= result["metrics"]["trace.self_sum_ratio"] <= 1.03


def test_spans_cover_every_layer(traced):
    seen = set()
    for _, path in traced.values():
        with open(path, encoding="utf-8") as spans:
            for line in spans:
                span = json.loads(line)
                assert span["end"] >= span["start"]
                seen.add(span["name"].split(":", 1)[0])
    assert LAYERS <= seen, LAYERS - seen


@pytest.mark.parametrize("name", sorted(TINY))
def test_counts_identical_traced_untraced_and_repeated(untraced, traced, name):
    first = untraced[name]["detail"]
    again = tiny_run(name)
    for other in (traced[name][0]["detail"], again["detail"]):
        assert other["digest"] == first["digest"]
        assert other["counts"] == first["counts"]
    for metric in ("energy_per_op", "virtual_latency_p50"):
        assert again["metrics"][metric] == untraced[name]["metrics"][metric]


def test_other_seed_builds_another_world(untraced):
    other = tiny_run("storm", seed=4)
    assert other["detail"]["digest"] != untraced["storm"]["detail"]["digest"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "storm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_probe_is_a_few_milliseconds():
    assert 0.0002 < min(harness.probe() for _ in range(5)) < 0.05


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
