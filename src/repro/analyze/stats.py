"""Running summary statistics and confidence intervals.

The analysis pipeline never holds a campaign's raw samples in memory: every
metric of every group collapses into an :class:`Accumulator` — a
Welford-style running summary (count / mean / M2 / min / max) updated one
sample at a time.

Confidence intervals over replicates use the Student-t critical value for
small samples and fall back to the normal value for large ones — the
tabulated two-sided 90/95/99% quantiles are interpolated linearly in
``1/df`` between pinned degrees of freedom, which keeps ``t_critical``
monotone decreasing in ``df`` (the property that makes CI width shrink
monotonically in ``n`` at fixed variance).  No SciPy at runtime: the table
is pinned here and cross-checked against ``scipy.stats`` in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

#: Degrees of freedom pinned in the t tables (interpolated in 1/df between).
_T_DFS: Tuple[int, ...] = tuple(range(1, 31)) + (40, 60, 120)

#: Two-sided Student-t critical values by confidence level; the final entry
#: of each row is the df→inf (normal) value used beyond the table.
_T_TABLE: Dict[float, Tuple[float, ...]] = {
    0.90: (
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833,
        1.812, 1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734,
        1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703,
        1.701, 1.699, 1.697, 1.684, 1.671, 1.658, 1.645,
    ),
    0.95: (
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
        2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
        2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
        2.048, 2.045, 2.042, 2.021, 2.000, 1.980, 1.960,
    ),
    0.99: (
        63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250,
        3.169, 3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878,
        2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771,
        2.763, 2.756, 2.750, 2.704, 2.660, 2.617, 2.576,
    ),
}

#: Confidence levels the tables cover.
SUPPORTED_CONFIDENCES: Tuple[float, ...] = tuple(sorted(_T_TABLE))


def _table(confidence: float) -> Tuple[float, ...]:
    try:
        return _T_TABLE[confidence]
    except KeyError:
        raise ValueError(
            f"confidence must be one of {SUPPORTED_CONFIDENCES}, got {confidence}"
        ) from None


def z_critical(confidence: float = 0.95) -> float:
    """Two-sided normal critical value (the df→inf column of the table)."""
    return _table(confidence)[-1]


def t_critical(df: int, confidence: float = 0.95) -> float:
    """Two-sided Student-t critical value for ``df`` degrees of freedom.

    Exact at the pinned table points, linear in ``1/df`` between them,
    and the normal value beyond ``df = 120`` — monotone decreasing in
    ``df`` throughout.
    """
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    table = _table(confidence)
    if df <= 30:
        return table[df - 1]
    if df > _T_DFS[-1]:
        return table[-1]
    for i in range(len(_T_DFS) - 1):
        lo_df, hi_df = _T_DFS[i], _T_DFS[i + 1]
        if lo_df <= df <= hi_df:
            # linear interpolation in 1/df preserves monotonicity
            frac = (1.0 / df - 1.0 / lo_df) / (1.0 / hi_df - 1.0 / lo_df)
            return table[i] + frac * (table[i + 1] - table[i])
    raise AssertionError("unreachable")  # pragma: no cover


@dataclass
class Accumulator:
    """Running count/mean/variance/min/max summary of one sample stream.

    ``add`` is Welford's online update, numerically stable in one pass.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    min: float = field(default=math.inf)
    max: float = field(default=-math.inf)

    def add(self, x: float) -> "Accumulator":
        """Fold one sample in (returns self for chaining)."""
        x = float(x)
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        return self

    def add_all(self, xs: Iterable[float]) -> "Accumulator":
        """Fold an iterable of samples in (returns self)."""
        for x in xs:
            self.add(x)
        return self

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 below two samples)."""
        return self.m2 / (self.count - 1) if self.count >= 2 else 0.0

    @property
    def std(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(max(0.0, self.variance))


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided CI for the mean of one accumulator's stream.

    ``method`` records how the half-width was derived: ``"t"`` (Student-t
    over the sample std), ``"normal"`` (large-sample z), or
    ``"degenerate"`` (fewer than two samples — zero width at the mean, so
    the bounds still contain the sample mean by construction).
    """

    mean: float
    lo: float
    hi: float
    half_width: float
    confidence: float
    n: int
    method: str


#: Sample count at and above which the normal value replaces Student-t.
NORMAL_CUTOVER_N = 121


def confidence_interval(
    acc: Accumulator, confidence: float = 0.95
) -> ConfidenceInterval:
    """The two-sided CI for the mean summarized by ``acc``.

    t-based below :data:`NORMAL_CUTOVER_N` samples, normal at and above
    (where the table is the normal value anyway); degenerate (zero width)
    below two samples.
    """
    if acc.count == 0:
        raise ValueError("cannot build a confidence interval from zero samples")
    if acc.count < 2:
        return ConfidenceInterval(
            mean=acc.mean, lo=acc.mean, hi=acc.mean, half_width=0.0,
            confidence=confidence, n=acc.count, method="degenerate",
        )
    if acc.count >= NORMAL_CUTOVER_N:
        crit, method = z_critical(confidence), "normal"
    else:
        crit, method = t_critical(acc.count - 1, confidence), "t"
    hw = crit * acc.std / math.sqrt(acc.count)
    return ConfidenceInterval(
        mean=acc.mean, lo=acc.mean - hw, hi=acc.mean + hw, half_width=hw,
        confidence=confidence, n=acc.count, method=method,
    )

