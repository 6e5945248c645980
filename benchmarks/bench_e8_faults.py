"""E8 — Section 7's robustness discussion: behaviour under faults.

The paper's protocols assume periodic re-execution for churn; this
experiment quantifies it: labeling correctness and recovery cost after
node failures, leader failures, and message loss.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (
    count_regions,
    feature_matrix_aggregation,
    random_feature_matrix,
)
from repro.core import VirtualArchitecture
from repro.runtime import deploy, kill_leaders, kill_random_nodes, recover

from paper_helpers import make_deployment, print_table

SIDE = 4


def fresh_stack(seed=7, n_random=240):
    net = make_deployment(side=SIDE, n_random=n_random, seed=seed)
    return net, deploy(net)


def test_recovery_after_leader_loss(benchmark):
    def run():
        net, stack = fresh_stack()
        kill_leaders(net, stack.binding)
        return recover(net, previous=stack)

    report = benchmark(run)
    assert report.recovered
    assert report.reelected_cells == SIDE * SIDE


@pytest.mark.parametrize("fraction", [0.1, 0.3])
def test_recovery_after_random_churn(benchmark, fraction):
    def run():
        net, stack = fresh_stack()
        kill_random_nodes(net, fraction, rng=1)
        return recover(net, previous=stack)

    report = benchmark(run)
    # dense deployments survive these fractions
    assert report.recovered


def test_fault_report(benchmark):
    def run():
        rows = []
        feat = random_feature_matrix(SIDE, 0.5, rng=2)
        va = VirtualArchitecture(SIDE)
        truth = count_regions(feat)

        # baseline: healthy run
        net, stack = fresh_stack()
        healthy = stack.run_application(
            va.synthesize(feature_matrix_aggregation(feat))
        )
        rows.append(["healthy", "-", healthy.root_payload.total_regions() == truth,
                     healthy.transmissions, 0])

        # kill every leader, recover, re-run
        net, stack = fresh_stack()
        kill_leaders(net, stack.binding)
        rec = recover(net, previous=stack)
        rerun = rec.stack.run_application(
            va.synthesize(feature_matrix_aggregation(feat))
        )
        rows.append(
            ["all leaders fail", "re-deploy", rerun.root_payload.total_regions() == truth,
             rerun.transmissions, rec.setup_messages]
        )

        # 30% random churn, recover, re-run
        net, stack = fresh_stack()
        kill_random_nodes(net, 0.3, rng=3)
        rec = recover(net, previous=stack)
        ok = False
        tx = 0
        if rec.recovered:
            rerun = rec.stack.run_application(
                va.synthesize(feature_matrix_aggregation(feat))
            )
            ok = bool(rerun.exfiltrated) and (
                rerun.root_payload.total_regions() == truth
            )
            tx = rerun.transmissions
        rows.append(["30% node churn", "re-deploy", ok, tx, rec.setup_messages])

        # message loss without recovery: may stall, never mislabels
        net, stack = fresh_stack()
        lossy = stack.run_application(
            va.synthesize(feature_matrix_aggregation(feat)),
            loss_rate=0.1,
            rng=np.random.default_rng(4),
        )
        outcome = (
            lossy.root_payload.total_regions() == truth
            if lossy.exfiltrated
            else "stalled (no wrong answer)"
        )
        rows.append(["10% msg loss", "none", outcome, lossy.transmissions, 0])

        # the same loss with hop-by-hop ARQ: completes correctly
        net, stack = fresh_stack()
        arq = stack.run_application(
            va.synthesize(feature_matrix_aggregation(feat)),
            loss_rate=0.1,
            rng=np.random.default_rng(4),
            reliable=True,
            max_retries=6,
        )
        arq_ok = (
            arq.root_payload.total_regions() == truth
            if arq.exfiltrated
            else False
        )
        rows.append(
            ["10% msg loss", "hop-by-hop ARQ", arq_ok, arq.transmissions, 0]
        )
        return rows

    rows = benchmark(run)
    print_table(
        "E8: fault injection on the deployed stack (4x4 cells)",
        ["fault", "mitigation", "correct result", "app transmissions",
         "recovery messages"],
        rows,
    )
    assert rows[0][2] is True
    assert rows[1][2] is True
