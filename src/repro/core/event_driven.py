"""Event-driven application model: probabilistic activation analysis.

Section 4.1: the task-graph model *"might not be suitable for event-driven
applications such as target tracking where only the sensor nodes in the
vicinity of the target (event) perform the sampling ... If a task graph
model has to be used for this scenario, the frequency of sampling at the
leaf nodes could be expressed in probabilistic terms derived from a
knowledge of expected events in the network."*

This module implements exactly that extension:

* :func:`expected_quadtree_cost` — closed-form *expected* energy/traffic of
  the quad-tree reduction when each leaf is active independently with
  probability *p* and inactive leaves contribute nothing (a level-*k*
  merge fires only if its block contains at least one active leaf).
* :class:`EventDrivenAggregation` — an aggregation wrapper that suppresses
  transmissions from fully inactive subtrees, so the executor *measures*
  the same quantity the analysis predicts.
* :func:`simulate_event_activations` — seeded sampling of activation sets
  around point events (targets) for the tracking scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Set

import numpy as np

from .coords import GridCoord, ilog2, is_power_of_two
from .cost_model import CostModel, UniformCostModel
from .synthesis import Aggregation


@dataclass(frozen=True)
class ExpectedCost:
    """Expected per-round cost of the probabilistically-activated reduction.

    ``expected_messages`` counts only messages from blocks containing at
    least one active leaf; ``expected_hop_units`` and ``expected_energy``
    weight them by path length and the cost model.
    """

    activation_probability: float
    expected_messages: float
    expected_hop_units: float
    expected_energy: float


def expected_quadtree_cost(
    side: int,
    activation_probability: float,
    cost_model: Optional[CostModel] = None,
    units_per_message: float = 1.0,
) -> ExpectedCost:
    """Expected cost when each leaf samples with probability *p*.

    A level-*k* child block (side ``2**(k-1)``) transmits iff at least one
    of its ``4**(k-1)`` leaves is active: probability
    ``q_k = 1 - (1 - p) ** (4 ** (k-1))``.  Summing over the three external
    children of every level-*k* group (hop distances ``h, h, 2h``,
    ``h = 2**(k-1)``) gives the expected traffic; at ``p = 1`` this reduces
    exactly to the deterministic closed form of
    :func:`repro.core.analysis.estimate_quadtree`.
    """
    if not is_power_of_two(side):
        raise ValueError(f"side must be a power of two, got {side}")
    if not 0.0 <= activation_probability <= 1.0:
        raise ValueError("activation_probability must be in [0, 1]")
    cm = cost_model or UniformCostModel()
    p = activation_probability
    m = ilog2(side)
    s = units_per_message

    exp_messages = 0.0
    exp_hops = 0.0
    for k in range(1, m + 1):
        leaves_per_child = 4 ** (k - 1)
        q = 1.0 - (1.0 - p) ** leaves_per_child
        h = 2 ** (k - 1)
        groups = 4 ** (m - k)
        exp_messages += groups * 3 * q
        exp_hops += groups * q * (h + h + 2 * h) * s
    energy = cm.tx_energy(1.0) * exp_hops + cm.rx_energy(1.0) * exp_hops
    return ExpectedCost(
        activation_probability=p,
        expected_messages=exp_messages,
        expected_hop_units=exp_hops,
        expected_energy=energy,
    )


class EventDrivenAggregation(Aggregation):
    """Wrap an *algebraic* aggregation so inactive subtrees stay silent.

    ``active`` marks which leaves sampled this round.  An inactive leaf
    produces the sentinel ``None`` payload; accumulators ignore ``None``;
    a finalized accumulator that saw no active contribution finalizes to
    ``None`` again, and messages carrying ``None`` are given size 0 — the
    executor still routes them (the control skeleton is oblivious), but
    they cost nothing, matching the paper's "only the sensor nodes in the
    vicinity of the target perform the sampling and in-network
    collaborative signal processing".

    Suitable for count/sum/max/histogram-style aggregations whose merge
    is indifferent to missing contributions.  It is **not** suitable for
    the boundary-merging region aggregation, whose accumulators require a
    complete tiling — for region labeling under partial activation,
    express inactivity in the feature predicate instead
    (``feature = active(c) and reading_above_threshold(c)``), which is
    also the physically accurate model: an unsampled PoC is simply not a
    feature node for the query.
    """

    def __init__(self, inner: Aggregation, active: Callable[[GridCoord], bool]):
        self.inner = inner
        self.active = active

    def local(self, coord: GridCoord) -> Any:
        if not self.active(coord):
            return None
        return self.inner.local(coord)

    def make_accumulator(self, corner: GridCoord, level: int) -> Any:
        return {"acc": None, "corner": corner, "level": level}

    def merge(self, accumulator: Dict[str, Any], payload: Any) -> None:
        if payload is None:
            return
        if accumulator["acc"] is None:
            accumulator["acc"] = self.inner.make_accumulator(
                accumulator["corner"], accumulator["level"]
            )
        self.inner.merge(accumulator["acc"], payload)

    def finalize(self, accumulator: Any) -> Any:
        if accumulator is None:
            return None
        if isinstance(accumulator, dict) and "acc" in accumulator:
            if accumulator["acc"] is None:
                return None
            return self.inner.finalize(accumulator["acc"])
        # level-0 value passes through
        return self.inner.finalize(accumulator)

    def size_of(self, payload: Any) -> float:
        if payload is None:
            return 0.0
        return self.inner.size_of(payload)

    def local_operations(self, coord: GridCoord) -> float:
        if not self.active(coord):
            return 0.0
        return self.inner.local_operations(coord)

    def merge_operations(self, payload: Any) -> float:
        if payload is None:
            return 0.0
        return self.inner.merge_operations(payload)


def simulate_event_activations(
    side: int,
    n_events: int,
    vicinity_radius: float,
    rng: "np.random.Generator | int | None" = None,
) -> Set[GridCoord]:
    """Activation set for a tracking round: leaves within
    ``vicinity_radius`` (grid cells, Euclidean) of any of ``n_events``
    uniformly random targets sample; the rest stay idle."""
    if n_events < 0:
        raise ValueError("n_events must be non-negative")
    if vicinity_radius < 0:
        raise ValueError("vicinity_radius must be non-negative")
    r = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    targets = [(r.uniform(0, side), r.uniform(0, side)) for _ in range(n_events)]
    active: Set[GridCoord] = set()
    for x in range(side):
        for y in range(side):
            cx, cy = x + 0.5, y + 0.5
            for tx, ty in targets:
                if math.hypot(cx - tx, cy - ty) <= vicinity_radius:
                    active.add((x, y))
                    break
    return active
