"""Program synthesis over the tree virtual topology.

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

This module is synthesis only: ``repro.core.executor.execute_round`` runs
a tree round with the same event loop and cost accounting as a grid round,
reading the topology from :attr:`TreeProgramSpec.topology` (messages
travel one tree edge per hop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from .coords import GridCoord
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

    @property
    def topology(self) -> VirtualTree:
        """The virtual topology the executors route over: the tree."""
        return self.tree

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
