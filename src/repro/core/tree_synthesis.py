"""Synthesis and execution over the tree virtual topology.

Section 3.2: *"A grid will be an appropriate choice of virtual topology for
uniform node deployment over the terrain.  For non-uniform deployments,
other virtual topologies such as a tree could be more appropriate."*

This module completes that alternative: the same reactive-program synthesis
applied to a :class:`~repro.core.network_model.VirtualTree` — leaves sense,
interior nodes merge the summaries of their children, the root exfiltrates.
The rule set mirrors Figure 4 with ``Leader(recLevel)`` replaced by the
tree parent and the expected message count by the node's child count; the
aggregation interface is shared, so any :class:`Aggregation` (counts,
sums, boundary merging with appropriately assigned regions) runs unchanged
on either topology.

:class:`TreeExecutor` drives one round with the same event-driven cost
accounting as the grid executor (messages travel one tree edge per hop).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .coords import GridCoord
from .cost_model import CostModel, EnergyLedger, UniformCostModel
from .executor import ExecutionResult
from .network_model import VirtualTree
from .program import Context, Message, NodeProgram, Rule
from .synthesis import MGRAPH, Aggregation


@dataclass
class TreeProgramSpec:
    """Synthesized reduction program over a virtual tree.

    ``program_for`` instantiates the per-node rule program; addresses are
    the tree's ``(level, index)`` pairs.
    """

    tree: VirtualTree
    aggregation: Aggregation

    def program_for(self, addr: GridCoord) -> NodeProgram:
        """The node program for tree address ``addr``."""
        self.tree.validate_member(addr)
        return _build_tree_program(self, addr)


def synthesize_tree_program(
    tree: VirtualTree, aggregation: Aggregation
) -> TreeProgramSpec:
    """Synthesize the reduction program for every node of ``tree``."""
    return TreeProgramSpec(tree=tree, aggregation=aggregation)


def _build_tree_program(spec: TreeProgramSpec, addr: GridCoord) -> NodeProgram:
    tree = spec.tree
    agg = spec.aggregation
    children = tree.children(addr)
    parent = tree.parent(addr)
    is_leaf = not children

    state: Dict[str, Any] = {
        "start": False,
        "transmit": False,
        "myAddr": addr,
        "mySubGraph": None,
        "msgsReceived": 0,
        "sensed": False,
        "done": False,
        "exfiltrated": None,
    }

    def cond_start(ctx: Context) -> bool:
        return bool(ctx.state["start"]) and not ctx.state["done"]

    def act_start(ctx: Context) -> None:
        st = ctx.state
        st["start"] = False
        st["sensed"] = True
        if is_leaf:
            st["mySubGraph"] = agg.local(addr)
            st["transmit"] = True
            ctx.charge(agg.local_operations(addr))
        else:
            # interior tree nodes are pure merge points: they aggregate
            # children; sensing happens at the leaves only (Section 4.1's
            # "only the leaf nodes perform the actual sampling")
            st["mySubGraph"] = agg.make_accumulator(addr, addr[0])

    def cond_receive(ctx: Context) -> bool:
        return ctx.message is not None and ctx.message.kind == MGRAPH

    def act_receive(ctx: Context) -> None:
        st = ctx.state
        msg = ctx.message
        assert msg is not None
        if st["mySubGraph"] is None:
            st["mySubGraph"] = agg.make_accumulator(addr, addr[0])
        agg.merge(st["mySubGraph"], msg.payload)
        st["msgsReceived"] += 1
        ctx.charge(agg.merge_operations(msg.payload))

    def cond_complete(ctx: Context) -> bool:
        st = ctx.state
        return (
            not is_leaf
            and not st["transmit"]
            and not st["done"]
            and st["sensed"]
            and st["msgsReceived"] >= len(children)
        )

    def act_complete(ctx: Context) -> None:
        ctx.state["transmit"] = True

    def cond_transmit(ctx: Context) -> bool:
        return bool(ctx.state["transmit"])

    def act_transmit(ctx: Context) -> None:
        st = ctx.state
        st["transmit"] = False
        payload = (
            st["mySubGraph"]
            if is_leaf
            else agg.finalize(st["mySubGraph"])
        )
        if parent is None:
            st["exfiltrated"] = payload
            st["done"] = True
            ctx.exfiltrate(payload)
            return
        ctx.send(
            parent,
            Message(
                kind=MGRAPH,
                sender=addr,
                payload=payload,
                level=addr[0],
                size_units=agg.size_of(payload),
            ),
        )
        st["done"] = True

    rules = [
        Rule("start", cond_start, act_start),
        Rule("transmit", cond_transmit, act_transmit),
        Rule("receive-mGraph", cond_receive, act_receive, consumes_message=True),
        Rule("advance", cond_complete, act_complete),
    ]
    return NodeProgram(rules, state)


class TreeExecutor:
    """Event-driven execution of a :class:`TreeProgramSpec`.

    Messages travel one tree edge (hop) per ``tx_latency(size)``; energy is
    charged tx at the sender and rx at the receiver, per the uniform cost
    model.
    """

    def __init__(
        self,
        spec: TreeProgramSpec,
        cost_model: Optional[CostModel] = None,
        charge_compute: bool = True,
    ):
        self.spec = spec
        self.cost_model = cost_model or UniformCostModel()
        self.charge_compute = charge_compute

    def run(self) -> ExecutionResult:
        """Execute one round: all tree nodes start at t=0."""
        cm = self.cost_model
        tree = self.spec.tree
        ledger = EnergyLedger()
        programs = {addr: self.spec.program_for(addr) for addr in tree.nodes()}
        node_ready: Dict[GridCoord, float] = {a: 0.0 for a in programs}
        exfiltrated: Dict[GridCoord, Any] = {}
        messages = 0
        data_units = 0.0
        hop_units = 0.0
        events = 0
        final_time = 0.0

        queue: List[Tuple[float, int, GridCoord, Optional[Message]]] = []
        seq = 0
        for addr in programs:
            heapq.heappush(queue, (0.0, seq, addr, None))
            seq += 1

        while queue:
            time, _, addr, msg = heapq.heappop(queue)
            events += 1
            begin = max(time, node_ready[addr])
            program = programs[addr]
            effects = program.start() if msg is None else program.deliver(msg)
            ops = sum(e.operations for e in effects)
            if self.charge_compute and ops:
                ledger.charge(addr, cm.compute_energy(ops), "compute")
            finish = begin + (cm.compute_latency(ops) if self.charge_compute else 0.0)
            node_ready[addr] = finish
            final_time = max(final_time, finish)
            for effect in effects:
                if effect.kind == "send":
                    assert effect.destination and effect.message
                    size = effect.message.size_units
                    ledger.charge(addr, cm.tx_energy(size), "tx")
                    ledger.charge(effect.destination, cm.rx_energy(size), "rx")
                    arrival = finish + cm.tx_latency(size)
                    heapq.heappush(
                        queue, (arrival, seq, effect.destination, effect.message)
                    )
                    seq += 1
                    messages += 1
                    data_units += size
                    hop_units += size
                elif effect.kind == "exfiltrate":
                    exfiltrated[addr] = effect.payload

        latency = (
            max((node_ready[a] for a in exfiltrated), default=final_time)
            if exfiltrated
            else final_time
        )
        return ExecutionResult(
            exfiltrated=exfiltrated,
            ledger=ledger,
            latency=latency,
            messages=messages,
            data_units=data_units,
            hop_units=hop_units,
            events=events,
        )


def execute_tree_round(
    spec: TreeProgramSpec,
    cost_model: Optional[CostModel] = None,
    charge_compute: bool = True,
) -> ExecutionResult:
    """Convenience wrapper: one tree-reduction round."""
    return TreeExecutor(
        spec, cost_model=cost_model, charge_compute=charge_compute
    ).run()
