"""Synthetic scalar fields: the monitored phenomenon.

The paper's application monitors *"the temperature over the entire terrain
with a certain granularity"*; feature nodes are those whose reading crosses
a query threshold (Section 3.1's binary status).  Real sensor traces are
unavailable, so these synthetic fields substitute (see DESIGN.md): each is
a deterministic function of position — Gaussian plumes (contaminant
monitoring), linear gradients (HVAC), plateaus, stripes — optionally
perturbed with seeded noise, giving full control over the number, size,
and shape of the homogeneous regions the labeling algorithm must find.

Fields are sampled at the points of coverage: :func:`sample_grid` produces
the per-PoC reading matrix and :func:`threshold_features` the binary
feature matrix the case study consumes.
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Sequence, Tuple

import numpy as np


class ScalarField(abc.ABC):
    """A deterministic scalar phenomenon over normalized terrain coords.

    ``value(x, y)`` takes coordinates in ``[0, 1]^2`` (NW origin, y grows
    southward — matching the grid convention) and returns the reading.
    """

    @abc.abstractmethod
    def value(self, x: float, y: float) -> float:
        """Field value at normalized position ``(x, y)``."""

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return CompositeField((self, other))


class UniformField(ScalarField):
    """Constant background level."""

    def __init__(self, level: float = 0.0):
        self.level = level

    def value(self, x: float, y: float) -> float:
        return self.level


class GaussianBlobField(ScalarField):
    """Sum of isotropic Gaussian plumes (hot spots / contaminant sources).

    ``blobs`` is a sequence of ``(cx, cy, sigma, amplitude)``.
    """

    def __init__(self, blobs: Sequence[Tuple[float, float, float, float]]):
        for _, _, sigma, _ in blobs:
            if sigma <= 0:
                raise ValueError("blob sigma must be positive")
        self.blobs = list(blobs)

    def value(self, x: float, y: float) -> float:
        total = 0.0
        for cx, cy, sigma, amp in self.blobs:
            d2 = (x - cx) ** 2 + (y - cy) ** 2
            total += amp * math.exp(-d2 / (2.0 * sigma * sigma))
        return total


class GradientField(ScalarField):
    """Linear ramp ``lo`` at the NW corner to ``hi`` at the SE corner along
    a configurable direction (HVAC-style temperature gradient)."""

    def __init__(self, lo: float = 0.0, hi: float = 1.0, angle: float = math.pi / 4):
        self.lo = lo
        self.hi = hi
        self.angle = angle

    def value(self, x: float, y: float) -> float:
        t = x * math.cos(self.angle) + y * math.sin(self.angle)
        tmax = abs(math.cos(self.angle)) + abs(math.sin(self.angle))
        return self.lo + (self.hi - self.lo) * (t / tmax if tmax else 0.0)


class PlateauField(ScalarField):
    """Axis-aligned rectangular plateaus on a background.

    ``plateaus`` is a sequence of ``(x0, y0, x1, y1, level)`` in normalized
    coordinates; later entries override earlier ones.
    """

    def __init__(
        self,
        plateaus: Sequence[Tuple[float, float, float, float, float]],
        background: float = 0.0,
    ):
        self.plateaus = list(plateaus)
        self.background = background

    def value(self, x: float, y: float) -> float:
        level = self.background
        for x0, y0, x1, y1, lvl in self.plateaus:
            if x0 <= x <= x1 and y0 <= y <= y1:
                level = lvl
        return level


class StripeField(ScalarField):
    """Periodic stripes (worst case for boundary compression: long
    boundaries, many regions)."""

    def __init__(self, period: float = 0.25, level: float = 1.0, vertical: bool = True):
        if period <= 0:
            raise ValueError("period must be positive")
        self.period = period
        self.level = level
        self.vertical = vertical

    def value(self, x: float, y: float) -> float:
        t = x if self.vertical else y
        return self.level if (int(t / (self.period / 2.0)) % 2 == 0) else 0.0


class CompositeField(ScalarField):
    """Pointwise sum of fields."""

    def __init__(self, parts: Sequence[ScalarField]):
        self.parts = list(parts)

    def value(self, x: float, y: float) -> float:
        return sum(p.value(x, y) for p in self.parts)


class NoisyField(ScalarField):
    """A field plus per-cell deterministic pseudo-noise.

    Noise is a seeded hash of the *quantized* position, so repeated
    sampling of the same PoC yields the same reading — the repeatability
    the data-driven execution model assumes within one round.
    """

    def __init__(self, base: ScalarField, amplitude: float, seed: int = 0,
                 quantum: float = 1e-6):
        if amplitude < 0:
            raise ValueError("amplitude must be non-negative")
        self.base = base
        self.amplitude = amplitude
        self.seed = seed
        self.quantum = quantum

    def value(self, x: float, y: float) -> float:
        qx = round(x / self.quantum)
        qy = round(y / self.quantum)
        h = hash((self.seed, qx, qy)) & 0xFFFFFFFF
        noise = (h / 0xFFFFFFFF) * 2.0 - 1.0
        return self.base.value(x, y) + self.amplitude * noise


def sample_grid(field: ScalarField, side: int) -> np.ndarray:
    """Sample a field at the PoC grid: cell centres of a ``side x side``
    decomposition of the unit square.  Returns readings indexed ``[y, x]``.
    """
    if side <= 0:
        raise ValueError("side must be positive")
    out = np.empty((side, side), dtype=float)
    for y in range(side):
        for x in range(side):
            out[y, x] = field.value((x + 0.5) / side, (y + 0.5) / side)
    return out


def threshold_features(readings: np.ndarray, threshold: float) -> np.ndarray:
    """Binary feature matrix: reading >= threshold (Section 3.1's
    "binary status (feature node or not a feature node) for the query")."""
    return np.asarray(readings, dtype=float) >= threshold


def feature_function(feature_matrix: np.ndarray) -> Callable[[Tuple[int, int]], bool]:
    """Adapter from a feature matrix to the coordinate predicate the
    aggregations consume (``coord=(x, y)`` -> ``matrix[y, x]``)."""
    feat = np.asarray(feature_matrix, dtype=bool)

    def fn(coord: Tuple[int, int]) -> bool:
        x, y = coord
        return bool(feat[y, x])

    return fn


def random_feature_matrix(
    side: int, density: float, rng: "np.random.Generator | int | None" = None
) -> np.ndarray:
    """I.i.d. Bernoulli feature matrix (stress input for property tests)."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    r = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    return r.random((side, side)) < density
