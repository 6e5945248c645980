"""Property tests for `repro.analyze.stats` (hypothesis + scipy cross-check).

The accumulator/CI layer carries the campaign analytics' statistical
claims, so the guarantees are tested as *properties*, not examples:

* confidence intervals always contain the sample mean, and their width
  shrinks monotonically in ``n`` at fixed variance — the t-table's
  ``1/df`` interpolation preserves monotonicity by construction;
* the pinned t-table matches ``scipy.stats.t.ppf`` where scipy is
  available (it is a test extra, never a runtime dependency).
"""

from __future__ import annotations

import pytest

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - baked into the test image
    HAVE_HYPOTHESIS = False

from repro.analyze.stats import (
    NORMAL_CUTOVER_N,
    SUPPORTED_CONFIDENCES,
    Accumulator,
    confidence_interval,
    t_critical,
    z_critical,
)

pytestmark = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed"
)

#: Bounded, finite samples: wide enough to exercise cancellation, small
#: enough that Welford stays within comfortable float tolerance.
samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=60,
)


def single_pass(xs) -> Accumulator:
    return Accumulator().add_all(xs)


class TestConfidenceIntervals:
    @given(samples, st.sampled_from(sorted(SUPPORTED_CONFIDENCES)))
    @settings(max_examples=100, deadline=None)
    def test_ci_contains_sample_mean(self, xs, confidence):
        ci = confidence_interval(single_pass(xs), confidence)
        assert ci.lo <= ci.mean <= ci.hi
        assert ci.n == len(xs)
        assert ci.half_width >= 0.0
        assert ci.method in ("t", "normal", "degenerate")

    @given(
        st.floats(min_value=0.01, max_value=1e3),
        st.sampled_from(sorted(SUPPORTED_CONFIDENCES)),
    )
    @settings(max_examples=60, deadline=None)
    def test_ci_width_shrinks_monotonically_in_n(self, std, confidence):
        """At fixed variance the half-width strictly decreases with n.

        Accumulators are synthesized directly (m2 = var * (n-1)) so the
        sample variance is held constant while n grows — this isolates
        the ``t(n-1)/sqrt(n)`` factor, which must be strictly decreasing
        because ``t_critical`` is monotone non-increasing in df.
        """
        widths = []
        for n in (2, 3, 5, 8, 13, 30, 80, 150, 400):
            acc = Accumulator(count=n, mean=10.0, m2=std * std * (n - 1),
                              min=0.0, max=20.0)
            widths.append(confidence_interval(acc, confidence).half_width)
        for narrow, wide in zip(widths[1:], widths):
            assert narrow < wide

    def test_degenerate_below_two_samples(self):
        ci = confidence_interval(Accumulator().add(4.2))
        assert (ci.lo, ci.hi, ci.half_width) == (4.2, 4.2, 0.0)
        assert ci.method == "degenerate"
        with pytest.raises(ValueError):
            confidence_interval(Accumulator())

    def test_normal_cutover(self):
        small = Accumulator(count=NORMAL_CUTOVER_N - 1, mean=0.0,
                            m2=float(NORMAL_CUTOVER_N - 2), min=-1.0, max=1.0)
        large = Accumulator(count=NORMAL_CUTOVER_N, mean=0.0,
                            m2=float(NORMAL_CUTOVER_N - 1), min=-1.0, max=1.0)
        assert confidence_interval(small).method == "t"
        assert confidence_interval(large).method == "normal"


class TestTTable:
    def test_monotone_decreasing_to_normal(self):
        for confidence in SUPPORTED_CONFIDENCES:
            values = [t_critical(df, confidence) for df in range(1, 200)]
            for later, earlier in zip(values[1:], values):
                assert later <= earlier
            assert values[-1] == z_critical(confidence)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            t_critical(0)
        with pytest.raises(ValueError):
            t_critical(5, confidence=0.42)

    def test_matches_scipy_where_available(self):
        stats = pytest.importorskip("scipy.stats")
        for confidence in SUPPORTED_CONFIDENCES:
            for df in (1, 2, 5, 10, 29, 30, 45, 90, 120):
                expected = float(stats.t.ppf((1 + confidence) / 2, df))
                # pinned 4-sig-digit tables + 1/df interpolation between
                # table rows: generous but regression-catching tolerance
                assert t_critical(df, confidence) == pytest.approx(
                    expected, rel=5e-3
                )
            for df in (121, 500):
                # beyond the table the normal value stands in for t;
                # the deliberate understatement is below two percent
                expected = float(stats.t.ppf((1 + confidence) / 2, df))
                assert t_critical(df, confidence) == pytest.approx(
                    expected, rel=2e-2
                )
            assert z_critical(confidence) == pytest.approx(
                float(stats.norm.ppf((1 + confidence) / 2)), rel=1e-3
            )
