"""Unit tests for deployed query execution.

Each query runs the one query path: a cache-off
:class:`~repro.serve.engine.QueryEngine` serving a single query.  Its
clock, medium and stats then hold the query's latency, energy,
transmissions and drops.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (
    MergeAccumulator,
    count_regions,
    feature_matrix_aggregation,
    random_feature_matrix,
)
from repro.core import VirtualArchitecture
from repro.runtime import deploy
from repro.serve import QueryEngine, ServeConfig

from conftest import make_deployment


def serve_once(stack, storage, query_cell, reduce_fn, **config):
    """``(engine, outcome)`` of one query on a fresh cache-off engine."""
    engine = QueryEngine(stack, storage, ServeConfig(cache=False, **config))
    return engine, engine.query(query_cell, reduce_fn=reduce_fn)


@pytest.fixture(scope="module")
def stack_with_storage():
    net = make_deployment(side=4, n_random=120, seed=7)
    stack = deploy(net)
    feat = random_feature_matrix(4, 0.5, rng=2)
    va = VirtualArchitecture(4)
    spec = va.synthesize(feature_matrix_aggregation(feat), max_level=1)
    run = stack.run_application(spec)
    assert len(run.exfiltrated) == 4  # level-1 storage leaders
    return net, stack, feat, run.exfiltrated


class TestDeployedQueries:
    def test_count_query_sums_local_counts(self, stack_with_storage):
        _, stack, feat, storage = stack_with_storage
        engine, result = serve_once(
            stack,
            {cell: s.total_regions() for cell, s in storage.items()},
            query_cell=(3, 3),
            reduce_fn=sum,
        )
        # sum-of-local-counts equals the design-time fast query's value
        expected = sum(s.total_regions() for s in storage.values())
        assert result.value == expected
        assert result.responses == len(storage) - (1 if (3, 3) in storage else 0)
        assert engine.stats.drops == 0

    def test_exact_count_via_summary_shipping(self, stack_with_storage):
        _, stack, feat, storage = stack_with_storage

        def merge_all(summaries):
            acc = MergeAccumulator((0, 0, 4, 4))
            for s in summaries:
                acc.add(s)
            return acc.finalize().total_regions()

        _, result = serve_once(
            stack,
            dict(storage),
            query_cell=(0, 0),
            reduce_fn=merge_all,
        )
        assert result.value == count_regions(feat)

    def test_query_from_storage_cell_skips_self_roundtrip(
        self, stack_with_storage
    ):
        _, stack, feat, storage = stack_with_storage
        assert (0, 0) in storage
        _, result = serve_once(
            stack,
            {cell: 1 for cell in storage},
            query_cell=(0, 0),
            reduce_fn=sum,
        )
        assert result.value == len(storage)
        assert result.responses == len(storage) - 1  # own count was local

    def test_query_cost_less_than_gathering(self, stack_with_storage):
        net, stack, feat, storage = stack_with_storage
        va = VirtualArchitecture(4)
        gather_run = stack.run_application(
            va.synthesize(feature_matrix_aggregation(feat), max_level=1)
        )
        engine, _ = serve_once(
            stack,
            {cell: s.total_regions() for cell, s in storage.items()},
            query_cell=(1, 1),
            reduce_fn=sum,
        )
        assert engine.medium.ledger.total < gather_run.ledger.total

    def test_invalid_query_cell(self, stack_with_storage):
        _, stack, _, storage = stack_with_storage
        with pytest.raises(ValueError):
            serve_once(
                stack, dict(storage), query_cell=(9, 9), reduce_fn=len
            )

    def test_deterministic(self, stack_with_storage):
        _, stack, _, storage = stack_with_storage
        kwargs = dict(
            storage={cell: 1 for cell in storage},
            query_cell=(2, 2),
            reduce_fn=sum,
        )
        runs = [serve_once(stack, **kwargs) for _ in range(2)]
        a, b = (
            (outcome.value, engine.sim.now, engine.medium.stats.transmissions)
            for engine, outcome in runs
        )
        assert a == b

    def test_lossy_query_degrades_not_corrupts(self, stack_with_storage):
        _, stack, _, storage = stack_with_storage
        _, result = serve_once(
            stack,
            {cell: 1 for cell in storage},
            query_cell=(3, 0),
            reduce_fn=sum,
            loss_rate=0.3,
            rng=np.random.default_rng(1),
        )
        # some responses may be lost; the answer is a lower bound
        assert result.value <= len(storage)

    def test_reliable_query_survives_loss(self, stack_with_storage):
        _, stack, _, storage = stack_with_storage
        _, result = serve_once(
            stack,
            {cell: 1 for cell in storage},
            query_cell=(3, 0),
            reduce_fn=sum,
            loss_rate=0.25,
            rng=np.random.default_rng(3),
            reliable=True,
        )
        assert result.value == len(storage)  # every response got through
        assert result.complete
        assert result.missing_cells == []


class TestCompletenessAccounting:
    """Regression: the seed silently reduced over partial answers."""

    def test_clean_run_reports_complete(self, stack_with_storage):
        _, stack, _, storage = stack_with_storage
        _, result = serve_once(
            stack, {cell: 1 for cell in storage}, query_cell=(3, 3),
            reduce_fn=sum,
        )
        assert result.complete
        assert result.missing_cells == []
        assert result.misdirected == 0

    def test_lossy_partial_answer_reported_incomplete(self, stack_with_storage):
        """The silent-partial-answer bug: under forced loss the reducer
        used to run over whatever arrived, with ``expected_responses``
        stored but never consulted.  The seeded run below loses at least
        one response; the result must say so."""
        _, stack, _, storage = stack_with_storage
        _, result = serve_once(
            stack,
            {cell: 1 for cell in storage},
            query_cell=(3, 0),
            reduce_fn=sum,
            loss_rate=0.6,
            rng=np.random.default_rng(2),
        )
        assert result.value < len(storage), "seed no longer forces a loss"
        assert not result.complete
        assert result.missing_cells, "lost cells must be enumerated"
        assert set(result.missing_cells) <= set(storage)
        assert result.value + len(result.missing_cells) == len(storage)

    def test_missing_cells_name_exactly_the_silent_cells(
        self, stack_with_storage
    ):
        _, stack, _, storage = stack_with_storage
        _, result = serve_once(
            stack,
            {cell: cell for cell in storage},  # payload identifies its cell
            query_cell=(3, 0),
            reduce_fn=list,
            loss_rate=0.6,
            rng=np.random.default_rng(2),
        )
        answered = set(result.value)
        assert set(result.missing_cells) == set(storage) - answered


class TestMisdirectedAccounting:
    """Regression: ``misdirected`` was counted internally, then dropped."""

    def test_request_to_empty_leader_counts_misdirected(
        self, stack_with_storage
    ):
        _, stack, _, storage = stack_with_storage
        cells = sorted(storage)
        # one "storage" cell whose leader holds nothing: the request is
        # delivered to a leader that cannot answer — a protocol routing
        # error that used to vanish
        bogus = {cells[0]: 1, cells[1]: None}
        _, result = serve_once(
            stack, bogus, query_cell=(3, 3), reduce_fn=sum
        )
        assert result.misdirected == 1
        assert not result.complete
        assert result.missing_cells == [cells[1]]
        assert result.value == 1
