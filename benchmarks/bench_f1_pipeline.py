"""F1 — Figure 1: the full design-flow pipeline, timed stage by stage.

Regenerates the methodology walk of Figure 1 (application → algorithm →
analysis → synthesis → runtime) on an 8x8 topographic-query instance and
reports the cost of each stage.
"""

from __future__ import annotations


from repro.apps import GaussianBlobField, TopographicQueryApp
from repro.core import (
    VirtualArchitecture,
    build_quadtree,
    check_all_constraints,
    recursive_quadrant_mapping,
)
from repro.runtime import deploy

from paper_helpers import make_deployment, print_table

SIDE = 8
FIELD = GaussianBlobField([(0.3, 0.3, 0.12, 1.0), (0.75, 0.7, 0.08, 1.0)])


def test_stage_application_model(benchmark):
    """Task-graph construction (Figure 1: 'architecture-independent
    algorithm specification')."""
    va = VirtualArchitecture(SIDE)
    tg = benchmark(build_quadtree, va.grid)
    assert len(tg) == 85


def test_stage_mapping(benchmark):
    """Role assignment with constraint checks."""
    va = VirtualArchitecture(SIDE)
    tg = build_quadtree(va.grid)

    def run():
        mapping = recursive_quadrant_mapping(tg, va.groups)
        check_all_constraints(mapping)
        return mapping

    mapping = benchmark(run)
    assert mapping.is_complete()


def test_stage_synthesis(benchmark):
    """Program synthesis: Figure 4 rule programs for every node."""
    va = VirtualArchitecture(SIDE)
    app = TopographicQueryApp(va, FIELD, threshold=0.5)

    def run():
        spec = app.synthesize()
        return [spec.program_for(coord) for coord in va.grid.nodes()]

    programs = benchmark(run)
    assert len(programs) == SIDE * SIDE


def test_stage_design_time_execution(benchmark):
    """One round on the virtual architecture."""
    va = VirtualArchitecture(SIDE)
    app = TopographicQueryApp(va, FIELD, threshold=0.5)
    report = benchmark(app.run_virtual)
    assert report.correct


def test_stage_runtime_setup(benchmark):
    """Section 5 protocols: topology emulation + binding."""
    def run():
        net = make_deployment(side=4, seed=7)
        return deploy(net)

    stack = benchmark(run)
    assert stack.binding.verify() == []


def test_pipeline_report(benchmark):
    """End-to-end walk; prints the Figure 1 stage table."""
    def run():
        va = VirtualArchitecture(SIDE)
        app = TopographicQueryApp(va, FIELD, threshold=0.5)
        tg = build_quadtree(va.grid)
        mapping = recursive_quadrant_mapping(tg, va.groups)
        check_all_constraints(mapping)
        report = app.run_virtual()
        return app, mapping, report

    app, mapping, report = benchmark(run)
    map_energy, map_latency = mapping.communication_cost()
    print_table(
        "F1: design-flow stages (8x8 topographic query)",
        ["stage", "output", "metric"],
        [
            ["application model", "quad-tree, 85 tasks", "arity 4"],
            ["mapping", "constraints OK", f"unit-cost energy {map_energy:.0f}"],
            ["synthesis", "Figure 4 programs", "4 rules/node"],
            [
                "design-time run",
                f"{report.regions} regions (correct={report.correct})",
                f"latency {report.performance.latency:.1f}, "
                f"energy {report.performance.total_energy:.1f}",
            ],
        ],
    )
    assert report.correct
