#!/usr/bin/env python3
"""HVAC zone analysis: algorithm selection from the cost model.

The paper's Section 2 design-flow example, played out on an HVAC scenario:
a building's temperature field has a diagonal gradient plus local heat
sources; the facilities engineer wants the over-temperature zones labelled
every control cycle, and must choose between in-network divide-and-conquer
merging and centralized collection.  The virtual architecture's cost model
makes the choice *before* deployment — then the measured runs confirm it.

Run:  python examples/hvac_zoning.py
"""

from repro import TopographicQueryApp, VirtualArchitecture
from repro.apps import (
    CompositeField,
    GaussianBlobField,
    GradientField,
    compare_designs,
)
from repro.core.analysis import estimate_centralized, estimate_quadtree


def building_field() -> CompositeField:
    """Diagonal ambient gradient + two equipment heat islands."""
    return CompositeField(
        [
            GradientField(18.0, 24.0),  # degrees C across the floor
            GaussianBlobField(
                [(0.3, 0.6, 0.08, 6.0), (0.75, 0.25, 0.06, 8.0)]
            ),
        ]
    )


def main() -> None:
    threshold = 24.5  # alarm threshold, degrees C

    print("=== design-time choice (analytic, before deployment) ===")
    print(f"{'floor grid':>12} {'dnc steps':>10} {'central steps':>14} "
          f"{'dnc energy':>11} {'central energy':>15}")
    for side in (8, 16, 32):
        q = estimate_quadtree(side)
        c = estimate_centralized(side)
        print(f"{side:>10}^2 {q.latency_steps:>10.0f} {c.latency_steps:>14.0f} "
              f"{q.total_energy:>11.0f} {c.total_energy:>15.0f}")
    print("-> divide-and-conquer wins both metrics at every floor size;\n"
          "   choose the quad-tree algorithm (the paper's Section 2 call).\n")

    print("=== measured on the sampled building (per control cycle) ===")
    for side in (8, 16, 32):
        va = VirtualArchitecture(side)
        app = TopographicQueryApp(va, building_field(), threshold)
        report = app.run_virtual()
        row = compare_designs(app.feature_matrix)
        print(
            f"{side:>3}x{side}: {report.regions} hot zones "
            f"(correct={report.correct}); dnc energy {row['dnc_energy']:.0f} "
            f"vs centralized {row['central_energy']:.0f} "
            f"({row['energy_ratio']:.1f}x), hot-spot load "
            f"{row['dnc_max_node']:.0f} vs {row['central_max_node']:.0f}"
        )

    # show the zones for the 16x16 floor
    va = VirtualArchitecture(16)
    app = TopographicQueryApp(va, building_field(), threshold)
    print("\n16x16 over-temperature map ('#' needs cooling):")
    print(app.ascii_feature_map())
    report = app.run_virtual()
    print(f"zones: {report.regions}, areas {report.areas}")


if __name__ == "__main__":
    main()
