"""Binding virtual processes to physical nodes (Section 5.2).

Each cell elects the member closest to the cell's geographic centre; that
node *"can start executing the program specified for node v_ij in G_V"*.
The protocol is a min-flood within each cell:

* every node computes ``delta = Euclidean distance to the cell centre``
  and broadcasts it;
* messages crossing cell boundaries are suppressed (as in path setup);
* a node hearing a smaller value clears its ``leader`` flag and
  re-broadcasts the better value; at quiescence exactly one node per cell
  — the one that never heard a smaller ``delta`` — keeps ``leader=true``.

Ties are broken by node id (the paper's real-valued distances make ties
measure-zero; ids make the implementation deterministic).  While flooding,
each node remembers the neighbour it first heard the winning value from;
these ``toward_leader`` pointers form a tree rooted at the leader, which
the transport layer uses for intra-cell delivery to the bound process.

The module also provides :func:`oracle_binding` (centralized argmin) and
the hooks the paper mentions for alternative criteria: *"residual energy
level or more sophisticated metrics could also be employed ... especially
if the role of leader is to be periodically rotated"* — pass a custom
``metric`` to :func:`bind_processes`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.coords import GridCoord
from ..core.cost_model import CostModel
from ..deployment.topology import RealNetwork
from ..simulator.network import Packet
from ..simulator.process import Process
from .topology_emulation import _run_setup

#: Packet kind used by the election.
ELECT_KIND = "elect"

#: Data units of one election message.
ELECT_SIZE_UNITS = 1.0

#: ``metric(network, node_id) -> float``; smaller wins.
Metric = Callable[[RealNetwork, int], float]


def distance_to_center_metric(network: RealNetwork, node_id: int) -> float:
    """The paper's default criterion: Euclidean distance to the cell centre
    (*"an effort to align the problem geometry and the network geometry as
    closely as possible"*)."""
    node = network.node(node_id)
    return network.cells.distance_to_center(node.position, network.cell_of(node_id))


def residual_energy_metric(network: RealNetwork, node_id: int) -> float:
    """Alternative criterion: prefer the member with most residual energy
    (negated so that smaller wins)."""
    return -network.node(node_id).residual_energy


class LeaderElectionProcess(Process):
    """Per-node min-flood election logic."""

    def __init__(self, metric: Metric = distance_to_center_metric):
        super().__init__()
        self.metric = metric
        self.cell: GridCoord = (-1, -1)
        self.my_value: Tuple[float, int] = (float("inf"), -1)
        self.best: Tuple[float, int] = (float("inf"), -1)
        self.leader = True
        self.toward_leader: Optional[int] = None

    def on_start(self) -> None:
        net = self.medium.network
        self.cell = net.cell_of(self.node_id)
        self.my_value = (self.metric(net, self.node_id), self.node_id)
        self.best = self.my_value
        self.leader = True
        self.broadcast(ELECT_KIND, (self.cell, self.best), ELECT_SIZE_UNITS)

    def on_packet(self, packet: Packet) -> None:
        if packet.kind != ELECT_KIND:
            return
        sender_cell, value = packet.payload
        if sender_cell != self.cell:
            return  # boundary suppression
        if value < self.best:
            self.best = value
            self.leader = False
            self.toward_leader = packet.src
            self.broadcast(ELECT_KIND, (self.cell, self.best), ELECT_SIZE_UNITS)


@dataclass
class Binding:
    """The converged binding: which physical node runs each virtual process.

    Attributes
    ----------
    leaders:
        ``cell -> elected node id``.
    toward_leader:
        ``node id -> next hop toward its cell's leader`` (None at the
        leader itself, and at nodes that never heard a better value —
        impossible in connected cells).
    metric:
        The criterion the leaders were elected by; a healing failover
        picks the ``(metric, id)``-argmin of the surviving members, the
        node a fresh election would pick.
    values:
        ``node id -> metric value`` as each member computed it when the
        election booted: the values the flood compared, which
        :meth:`verify` checks the leaders against.  A metric may read
        state the flood itself changes (residual energy drains with every
        election message), so re-evaluating it afterwards would not
        reproduce them.
    """

    network: RealNetwork
    leaders: Dict[GridCoord, int]
    toward_leader: Dict[int, Optional[int]]
    metric: Metric = distance_to_center_metric
    values: Dict[int, float] = field(default_factory=dict, repr=False)
    # (liveness generation, leader) at the last gradient repair, per cell;
    # throttles on-demand repairs so each churn event rebuilds a cell's
    # gradient at most once
    _repair_generation: Dict[GridCoord, Tuple[int, Optional[int]]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def leader_of(self, cell: GridCoord) -> int:
        """The bound node of ``cell`` (raises ``KeyError`` if unbound)."""
        return self.leaders[cell]

    def is_leader(self, node_id: int) -> bool:
        """True iff ``node_id`` won its cell's election."""
        return self.leaders.get(self.network.cell_of(node_id)) == node_id

    def path_to_leader(self, node_id: int) -> List[int]:
        """Follow the gradient pointers from ``node_id`` to its leader.

        Returns the node-id path inclusive of both ends; raises
        :class:`RuntimeError` on a broken or cyclic gradient.
        """
        path = [node_id]
        seen = {node_id}
        current = node_id
        while not self.is_leader(current):
            nxt = self.toward_leader.get(current)
            if nxt is None:
                raise RuntimeError(
                    f"node {current} has no gradient pointer and is not leader"
                )
            if nxt in seen:
                raise RuntimeError(f"gradient cycle at node {nxt}")
            seen.add(nxt)
            path.append(nxt)
            current = nxt
        return path

    def repair_gradient(self, cell: GridCoord) -> bool:
        """Rebuild ``cell``'s ``toward_leader`` pointers around dead nodes.

        Centralized stand-in for re-running the intra-cell election flood
        (the paper's "execute periodically" escape hatch), invoked on
        demand by the self-healing transport when a gradient hop is found
        dead.  BFS from the current leader over the *alive* intra-cell
        links, with sorted neighbour iteration so the rebuilt tree is a
        pure function of the liveness state.  Members unreachable from the
        leader get ``None`` (their envelopes stay deferred until a
        restore).  Returns True iff any pointer changed.  Throttled per
        ``(liveness generation, leader)``, so each churn event repairs a
        cell at most once; a dead or missing leader is not recorded, so
        the repair re-runs after the failover installs a successor.
        """
        net = self.network
        leader = self.leaders.get(cell)
        key = (net.liveness_generation, leader)
        if self._repair_generation.get(cell) == key:
            return False
        if leader is None or not net.node(leader).alive:
            return False
        self._repair_generation[cell] = key
        members = set(net.members_of_cell(cell))  # alive members only
        parent: Dict[int, Optional[int]] = {leader: None}
        frontier = [leader]
        while frontier:
            nxt: List[int] = []
            for u in frontier:
                for v in sorted(net.neighbors(u)):
                    if v in members and v not in parent:
                        parent[v] = u
                        nxt.append(v)
            frontier = nxt
        changed = False
        for m in members:
            new = parent.get(m)  # None for the leader and for unreached
            if self.toward_leader.get(m) != new:
                self.toward_leader[m] = new
                changed = True
        return changed

    def verify(self) -> List[str]:
        """Check against the centralized oracle: exactly one leader per
        covered cell, and it is the ``(value, id)``-argmin of the cell's
        members under the :attr:`values` the election compared (a member
        that took no part in it ranks last)."""
        problems: List[str] = []
        values = self.values
        for cell in self.network.cells.cells():
            members = self.network.members_of_cell(cell)
            if not members:
                if cell in self.leaders:
                    problems.append(f"cell {cell}: leader but no members")
                continue
            if cell not in self.leaders:
                problems.append(f"cell {cell}: no leader elected")
                continue
            best = min(members, key=lambda m: (values.get(m, math.inf), m))
            if self.leaders[cell] != best:
                problems.append(
                    f"cell {cell}: elected {self.leaders[cell]}, oracle says {best}"
                )
        return problems


def oracle_binding(
    network: RealNetwork, metric: Metric = distance_to_center_metric
) -> Dict[GridCoord, int]:
    """Centralized ground truth: per-cell (metric, id)-argmin.

    ``members_of_cell`` serves a liveness-generation-cached tuple, so
    repeated oracle evaluations between churn events (the maintenance
    loop's verify-after-recover pattern) do not re-filter memberships.
    """
    out: Dict[GridCoord, int] = {}
    for cell in network.cells.cells():
        members = network.members_of_cell(cell)
        if members:
            out[cell] = min(members, key=lambda m: (metric(network, m), m))
    return out


@dataclass
class BindingResult:
    """Protocol outcome: the binding plus cost/convergence measurements."""

    binding: Binding
    setup_time: float
    messages: int
    energy: float


def bind_processes(
    network: RealNetwork,
    metric: Metric = distance_to_center_metric,
    cost_model: Optional[CostModel] = None,
) -> BindingResult:
    """Run the binding protocol to convergence and collect the result."""
    processes, setup_time, messages, energy = _run_setup(
        network, cost_model, lambda nid: LeaderElectionProcess(metric)
    )
    leaders: Dict[GridCoord, int] = {}
    toward: Dict[int, Optional[int]] = {}
    values: Dict[int, float] = {}
    for nid, proc in processes.items():
        assert isinstance(proc, LeaderElectionProcess)
        toward[nid] = proc.toward_leader
        values[nid] = proc.my_value[0]
        if proc.leader:
            cell = network.cell_of(nid)
            if cell in leaders:
                # two survivors in one cell would mean non-convergence
                raise RuntimeError(
                    f"cell {cell}: multiple leaders {leaders[cell]} and {nid}"
                )
            leaders[cell] = nid
    return BindingResult(
        binding=Binding(
            network=network, leaders=leaders, toward_leader=toward,
            metric=metric, values=values,
        ),
        setup_time=setup_time,
        messages=messages,
        energy=energy,
    )
