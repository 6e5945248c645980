"""Runtime maintenance: churn, failure injection, and recovery.

Section 5.1: *"Since new nodes can be added to the network or existing
nodes can leave or fail, the above protocol should execute periodically."*
Section 7 lists fault tolerance among the issues the methodology must
handle.  This module provides the failure-injection utilities used by
experiment E8 and the recovery path: after churn, re-validate the
preconditions and re-run the setup protocols (the paper's periodic
re-execution, compressed to on-demand for experiments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.coords import GridCoord
from ..deployment.topology import RealNetwork
from .binding import Binding, residual_energy_metric
from .stack import DeployedStack, deploy


def kill_random_nodes(
    network: RealNetwork,
    fraction: float,
    rng: "np.random.Generator | int | None" = None,
    spare: Sequence[int] = (),
) -> List[int]:
    """Kill a uniform random ``fraction`` of alive nodes (never those in
    ``spare``).  Returns the killed ids."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    r = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    spare_set = set(spare)
    candidates = [nid for nid in network.alive_ids() if nid not in spare_set]
    # round-half-up, NOT round(): banker's rounding makes the victim
    # count non-monotonic in fraction (1.5 -> 2 but 2.5 -> 2)
    k = math.floor(fraction * len(candidates) + 0.5)
    victims = list(r.choice(candidates, size=min(k, len(candidates)), replace=False))
    for nid in victims:
        network.node(int(nid)).kill()
    return [int(v) for v in victims]


def kill_leaders(
    network: RealNetwork,
    binding: Binding,
    cells: Optional[Sequence[GridCoord]] = None,
) -> List[int]:
    """Kill the bound leader of every cell in ``cells`` (all bound cells by
    default) — the worst-case fault for the application layer."""
    targets = list(cells) if cells is not None else list(binding.leaders)
    killed: List[int] = []
    for cell in targets:
        nid = binding.leaders.get(cell)
        if nid is not None and network.node(nid).alive:
            network.node(nid).kill()
            killed.append(nid)
    return killed


@dataclass
class RecoveryReport:
    """Outcome of one recovery cycle after churn."""

    stack: Optional[DeployedStack]
    precondition_problems: List[str]
    reelected_cells: int
    setup_messages: int
    setup_energy: float

    @property
    def recovered(self) -> bool:
        """True iff the stack came back up with preconditions intact."""
        return self.stack is not None


def recover(
    network: RealNetwork, previous: Optional[DeployedStack] = None
) -> RecoveryReport:
    """Re-run the setup protocols after churn.

    If the surviving deployment still satisfies the Section 5
    preconditions, a fresh :class:`DeployedStack` is built (periodic
    re-execution) under ``previous``'s cost model, electing by
    ``previous``'s binding metric (so a rotated stack stays rotated), and
    the report counts the cells whose leader changed against ``previous``;
    without ``previous`` it elects by the paper's distance-to-centre
    criterion.  Otherwise the report carries the violated assumptions and
    no stack — the paper's protocols have no answer once a cell is emptied
    or split, which E8 quantifies.
    """
    problems = network.validate_protocol_preconditions()
    if problems:
        return RecoveryReport(
            stack=None,
            precondition_problems=problems,
            reelected_cells=0,
            setup_messages=0,
            setup_energy=0.0,
        )
    if previous is None:
        stack = deploy(network, strict=False)
        reelected = 0
    else:
        stack = deploy(
            network,
            cost_model=previous.cost_model,
            metric=previous.binding.metric,
            strict=False,
        )
        reelected = sum(
            previous.binding.leaders.get(cell) != leader
            for cell, leader in stack.binding.leaders.items()
        )
    return RecoveryReport(
        stack=stack,
        precondition_problems=[],
        reelected_cells=reelected,
        setup_messages=stack.setup.total_messages,
        setup_energy=stack.setup.total_energy,
    )


def rotate_leaders(network: RealNetwork) -> DeployedStack:
    """Re-bind with the residual-energy metric — the paper's suggestion for
    periodically rotating the leader role to balance drain."""
    return deploy(network, metric=residual_energy_metric, strict=False)
