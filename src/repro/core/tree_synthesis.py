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

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from .coords import GridCoord
from .network_model import VirtualTree
from .program import Context, Message, NodeProgram, Rule
from .synthesis import MGRAPH, Aggregation


@dataclass(frozen=True)
class TreeProgramSpec:
    """Synthesized reduction program over a virtual tree.

    Like :class:`~repro.core.synthesis.SynthesizedProgram`, its rules,
    built with the spec, run every node's state; a rule reads the node's
    address, a ``(level, index)`` pair, from ``state["myAddr"]``.
    """

    tree: VirtualTree
    aggregation: Aggregation
    _rules: Tuple[Rule, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_rules", _tree_rules(self))

    @property
    def topology(self) -> VirtualTree:
        """The virtual topology the executors route over: the tree."""
        return self.tree

    def program_for(self, addr: GridCoord) -> NodeProgram:
        """The node program for tree address ``addr``."""
        self.tree.validate_member(addr)
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
        return NodeProgram(self._rules, state)


def synthesize_tree_program(
    tree: VirtualTree, aggregation: Aggregation
) -> TreeProgramSpec:
    """Synthesize the reduction program for every node of ``tree``."""
    return TreeProgramSpec(tree=tree, aggregation=aggregation)


def _tree_rules(spec: TreeProgramSpec) -> Tuple[Rule, ...]:
    """The reduction rules, shared by every node program of ``spec``: leaves
    sit at the tree's depth, and every other node has ``arity`` children."""
    tree = spec.tree
    agg = spec.aggregation

    def cond_start(ctx: Context) -> bool:
        return bool(ctx.state["start"]) and not ctx.state["done"]

    def act_start(ctx: Context) -> None:
        st = ctx.state
        addr = st["myAddr"]
        st["start"] = False
        st["sensed"] = True
        if addr[0] == tree.depth:
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
            addr = st["myAddr"]
            st["mySubGraph"] = agg.make_accumulator(addr, addr[0])
        agg.merge(st["mySubGraph"], msg.payload)
        st["msgsReceived"] += 1
        ctx.charge(agg.merge_operations(msg.payload))

    def cond_complete(ctx: Context) -> bool:
        st = ctx.state
        return (
            st["myAddr"][0] < tree.depth
            and not st["transmit"]
            and not st["done"]
            and st["sensed"]
            and st["msgsReceived"] >= tree.arity
        )

    def act_complete(ctx: Context) -> None:
        ctx.state["transmit"] = True

    def cond_transmit(ctx: Context) -> bool:
        return bool(ctx.state["transmit"])

    def act_transmit(ctx: Context) -> None:
        st = ctx.state
        addr = st["myAddr"]
        st["transmit"] = False
        leaf = addr[0] == tree.depth
        payload = st["mySubGraph"] if leaf else agg.finalize(st["mySubGraph"])
        parent = tree.parent(addr)
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

    return (
        Rule("start", cond_start, act_start),
        Rule("transmit", cond_transmit, act_transmit),
        Rule("receive-mGraph", cond_receive, act_receive, consumes_message=True),
        Rule("advance", cond_complete, act_complete),
    )
