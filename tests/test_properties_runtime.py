"""Property-based tests for the runtime transport under adversity.

The safety property that matters: whatever the loss pattern, the deployed
reduction either completes with the *correct* answer or visibly stalls —
it never reports a wrong result (duplicates suppressed, merges exact).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import (
    count_regions,
    feature_matrix_aggregation,
    random_feature_matrix,
)
from repro.core import CountAggregation, VirtualArchitecture
from repro.runtime import deploy

from conftest import make_deployment

# one shared deployment: hypothesis varies loss seeds and fields
_NET = make_deployment(side=4, seed=3)
_STACK = deploy(_NET)
_VA = VirtualArchitecture(4)

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestLossSafety:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.0, max_value=0.4),
    )
    @SETTINGS
    def test_unreliable_never_wrong(self, seed, loss):
        feat = random_feature_matrix(4, 0.5, rng=seed)
        truth = count_regions(feat)
        run = _STACK.run_application(
            _VA.synthesize(feature_matrix_aggregation(feat)),
            loss_rate=loss,
            rng=np.random.default_rng(seed),
        )
        if run.exfiltrated:
            assert run.root_payload.total_regions() == truth

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.0, max_value=0.3),
    )
    @SETTINGS
    def test_reliable_never_wrong_and_usually_completes(self, seed, loss):
        feat = random_feature_matrix(4, 0.5, rng=seed)
        truth = count_regions(feat)
        run = _STACK.run_application(
            _VA.synthesize(feature_matrix_aggregation(feat)),
            loss_rate=loss,
            rng=np.random.default_rng(seed),
            reliable=True,
            max_retries=8,
        )
        if run.exfiltrated:
            assert run.root_payload.total_regions() == truth
        else:
            # only a retry-budget exhaustion may stall the round
            assert run.drops > 0

    @given(st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_lossless_always_completes(self, seed):
        feat = random_feature_matrix(4, 0.5, rng=seed)
        run = _STACK.run_application(
            _VA.synthesize(feature_matrix_aggregation(feat))
        )
        assert run.root_payload.total_regions() == count_regions(feat)
        assert run.drops == 0


class TestCountInvariance:
    @given(st.integers(min_value=0, max_value=10_000))
    @SETTINGS
    def test_count_reduction_deployed_equals_design(self, seed):
        rng = np.random.default_rng(seed)
        chosen = {
            (int(x), int(y))
            for x, y in rng.integers(0, 4, size=(rng.integers(0, 17), 2))
        }
        agg = CountAggregation(lambda c: c in chosen)
        virtual = _VA.execute(agg)
        deployed = _STACK.run_application(_VA.synthesize(agg))
        assert virtual.root_payload == deployed.root_payload == len(chosen)
