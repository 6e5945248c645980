"""F4 — Figure 4: the synthesized reactive program.

Regenerates the program text, then executes one full round of it on the
virtual grid (counting rule firings and messages) and on the deployed
physical stack — the two backends running the *same* program objects.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import feature_matrix_aggregation, random_feature_matrix
from repro.core import VirtualArchitecture
from repro.core.executor import execute_round
from repro.runtime import deploy

from paper_helpers import make_deployment, print_table


def test_figure4_text_regeneration(benchmark):
    va = VirtualArchitecture(4)
    feat = random_feature_matrix(4, 0.5, rng=1)
    spec = va.synthesize(feature_matrix_aggregation(feat))
    text = benchmark(spec.render_figure4)
    print("\n=== F4: synthesized program specification (paper Figure 4) ===")
    print(text)
    for token in ("start = true", "received mGraph", "transmit = true",
                  "msgsReceived", "exfiltrate"):
        assert token in text


@pytest.mark.parametrize("side", [4, 8, 16])
def test_program_round_virtual(benchmark, side):
    """One round of the Figure 4 program on the virtual grid."""
    va = VirtualArchitecture(side)
    feat = random_feature_matrix(side, 0.4, rng=2)
    agg = feature_matrix_aggregation(feat)

    def run():
        return va.execute(agg)

    result = benchmark(run)
    assert len(result.exfiltrated) == 1


def test_program_round_deployed(benchmark):
    """The same program executed over the physical stack."""
    net = make_deployment(side=4, seed=7)
    stack = deploy(net)
    va = VirtualArchitecture(4)
    feat = random_feature_matrix(4, 0.4, rng=3)

    def run():
        spec = va.synthesize(feature_matrix_aggregation(feat))
        return stack.run_application(spec)

    result = benchmark(run)
    assert result.drops == 0


def test_program_report(benchmark):
    """Print the per-round execution profile of the synthesized program."""
    side = 8
    va = VirtualArchitecture(side)
    feat = random_feature_matrix(side, 0.4, rng=4)
    agg = feature_matrix_aggregation(feat)
    result = benchmark(lambda: execute_round(agg and va.synthesize(agg)))
    print_table(
        "F4: one round of the synthesized program (8x8)",
        ["metric", "value"],
        [
            ["mGraph messages", result.messages],
            ["data units moved", f"{result.data_units:.0f}"],
            ["hop-units", f"{result.hop_units:.0f}"],
            ["stimuli processed", result.events],
            ["latency", f"{result.latency:.1f}"],
            ["total energy", f"{result.ledger.total:.1f}"],
        ],
    )
    # 3 external messages per group: 3 * (16 + 4 + 1) for an 8x8 grid
    assert result.messages == 63
    assert result.events == side * side + result.messages
