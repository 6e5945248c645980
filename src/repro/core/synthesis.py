"""Program synthesis: from mapped task graph to per-node rule programs.

Section 4.3 of the paper manually synthesizes the quad-tree algorithm into
the reactive program of **Figure 4**.  This module mechanizes that step —
the direction the paper itself points at (*"a coherent top-down methodology
to simplify and ultimately automate the design and synthesis"*).  Given the
group-formation middleware and an *aggregation* (the data-dependent part:
how local readings are summarized and how summaries merge),
:func:`synthesize_quadtree_program` emits a :class:`SynthesizedProgram`
whose rule set follows Figure 4, built once and run by every node over its
own state:

* ``Condition: start = true`` — compute ``mySubGraph[0]`` from intra-cell
  readings, schedule transmission, advance the recursion level.
* ``Condition: received mGraph`` — incrementally merge the incoming
  summary into ``mySubGraph[mrecLevel]``; count it.
* ``Condition: transmit = true`` — finalize the completed level; either
  exfiltrate (at ``maxrecLevel``) or deliver to ``Leader(recLevel)``.
* ``Condition: msgsReceived[recLevel] = 3`` — a leader that has merged all
  child contributions advances to the next level.

Two clarifications relative to the paper's hand-written sketch (documented
here because EXPERIMENTS.md reports against this implementation):

1. **Leader indexing.**  Figure 4 sends to ``Leader(recLevel+1)`` after
   already incrementing ``recLevel``; applied literally a leaf would
   address a level-2 leader.  We send the completed level-*k* summary to
   ``Leader(k+1)`` exactly once, which is what the surrounding prose
   describes.
2. **The self message.**  The paper notes *"one of the four incoming
   messages in the quad-tree representation is from the node to itself"*
   and expects only 3 radio messages.  We realize the self message as a
   zero-cost local merge of the node's own lower-level summary, so a
   leader's own quadrant data reaches its accumulator without a radio
   transmission.

The synthesis is generic over the leader policy: with non-nested policies
(e.g. :class:`~repro.core.groups.CenterLeaderPolicy`) a node's leadership
levels may have gaps, in which case it forwards its local data to a foreign
leader yet continues to serve as the merge point of a higher level.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from .coords import GridCoord
from .groups import HierarchicalGroups
from .network_model import OrientedGrid
from .program import Context, Message, NodeProgram, Rule

#: Message kind used by the synthesized program (Figure 4's alphabet).
MGRAPH = "mGraph"


class Aggregation(abc.ABC):
    """The data-dependent half of a quad-tree reduction.

    The synthesized control skeleton is identical for any in-network
    reduction; subclasses define what a summary is.  The case study's
    boundary-merging aggregation lives in ``repro.apps.boundary``; simple
    algebraic aggregations (:class:`CountAggregation`, ...) are provided
    below for tests and for non-topographic queries such as the paper's
    "querying the properties of sensor nodes (residual energy levels)".
    """

    @abc.abstractmethod
    def local(self, coord: GridCoord) -> Any:
        """Level-0 summary computed from the node's intra-cell readings."""

    @abc.abstractmethod
    def make_accumulator(self, corner: GridCoord, level: int) -> Any:
        """Fresh accumulator for the level-``level`` block at ``corner``."""

    @abc.abstractmethod
    def merge(self, accumulator: Any, payload: Any) -> None:
        """Merge one child summary into an accumulator (in place).

        Must be order-independent across the children of one block —
        the asynchronous model delivers them in arbitrary order.
        """

    @abc.abstractmethod
    def finalize(self, accumulator: Any) -> Any:
        """Turn a complete accumulator into the payload sent upward."""

    def size_of(self, payload: Any) -> float:
        """Data units of a payload (drives tx cost); default 1."""
        return 1.0

    def local_operations(self, coord: GridCoord) -> float:
        """Compute operations charged for the level-0 summary; default 1."""
        return 1.0

    def merge_operations(self, payload: Any) -> float:
        """Compute operations charged per merge; default ``size_of``."""
        return self.size_of(payload)


class _Role(NamedTuple):
    """A node's static part in the program, a pure function of its coordinate."""

    lead_levels: Tuple[int, ...]
    external: Dict[int, int]  # lead level >= 1 -> child summaries from other nodes
    own: Dict[int, bool]  # lead level >= 1 -> the node's own summary is a child


@dataclass(frozen=True)
class SynthesizedProgram:
    """The output of program synthesis: the Figure 4 program of every grid node.

    Its four rules, built with the spec, run every node's state: a rule
    reads the coordinate from ``state["myCoords"]`` and the node's role
    from the record the coordinate's first :meth:`program_for` computes.

    Attributes
    ----------
    groups:
        The middleware instance the program was synthesized against.
    aggregation:
        The plugged-in data aggregation.
    max_level:
        ``maxrecLevel`` — the level whose completion triggers exfiltration.
    """

    groups: HierarchicalGroups
    aggregation: Aggregation
    max_level: int
    _rules: Tuple[Rule, ...] = field(init=False, repr=False, compare=False)
    _role_of: Dict[GridCoord, _Role] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "_rules", _figure4_rules(self))

    @property
    def topology(self) -> OrientedGrid:
        """The virtual topology the executors route over: the groups' grid."""
        return self.groups.grid

    def program_for(self, coord: GridCoord) -> NodeProgram:
        """The node program for ``coord``: the shared rules, a fresh state."""
        self._role(coord)  # validates coord and records its role
        levels = range(self.max_level + 1)
        state: Dict[str, Any] = {
            "start": False,
            "transmit": False,
            "recLevel": 0,
            "maxrecLevel": self.max_level,
            "myCoords": coord,
            "mySubGraph": {},  # level -> accumulator
            "msgsReceived": dict.fromkeys(levels, 0),
            # level -> coords merged at that level: a failover successor
            # adopts the program state-fresh and may re-send a summary, and
            # merging it twice would corrupt the aggregation — msgsReceived
            # counts *distinct* child senders
            "sendersMerged": {},
            "ownMerged": dict.fromkeys(levels, False),
            "done": False,
            "exfiltrated": None,
        }
        return NodeProgram(self._rules, state)

    def _role(self, coord: GridCoord) -> _Role:
        """``coord``'s record; an invalid ``coord`` raises on every call."""
        role = self._role_of.get(coord)
        if role is None:
            groups = self.groups
            groups.grid.validate_member(coord)
            lead = tuple(k for k in range(self.max_level + 1) if groups.is_leader(coord, k))
            children = {k: groups.child_leaders(coord, k) for k in lead if k > 0}
            role = self._role_of[coord] = _Role(
                lead,
                {k: sum(1 for c in cs if c != coord) for k, cs in children.items()},
                {k: coord in cs for k, cs in children.items()},
            )
        return role

    def roles(self, coord: GridCoord) -> Dict[str, Any]:
        """Role metadata for ``coord`` (diagnostics and Figure 4 header)."""
        lead_levels = self._role(coord).lead_levels
        return {
            "coord": coord,
            "lead_levels": list(lead_levels),
            "is_root": self.max_level in lead_levels,
            "maxrecLevel": self.max_level,
        }

    def render_figure4(self) -> str:
        """Regenerate the textual program specification of Figure 4."""
        return FIGURE4_TEXT


def synthesize_quadtree_program(
    groups: HierarchicalGroups,
    aggregation: Aggregation,
    max_level: Optional[int] = None,
) -> SynthesizedProgram:
    """Synthesize the Figure 4 program for a grid + middleware + aggregation.

    ``max_level`` defaults to the middleware's top level (full reduction to
    a single root).  A smaller value stops the reduction early, leaving
    per-block results distributed at the level-``max_level`` leaders — the
    "distributed storage nodes" configuration the paper's query discussion
    assumes (Section 3.1).
    """
    if max_level is None:
        max_level = groups.max_level
    if not 0 <= max_level <= groups.max_level:
        raise ValueError(
            f"max_level must be in [0, {groups.max_level}], got {max_level}"
        )
    return SynthesizedProgram(
        groups=groups, aggregation=aggregation, max_level=max_level
    )


# ---------------------------------------------------------------------------
# The synthesized per-node rule set
# ---------------------------------------------------------------------------


def _figure4_rules(spec: SynthesizedProgram) -> Tuple[Rule, ...]:
    """The four rules of Figure 4, shared by every node program of ``spec``."""
    groups = spec.groups
    agg = spec.aggregation
    max_level = spec.max_level
    role_of = spec._role_of

    def _ensure_accumulator(st: Dict[str, Any], level: int) -> Any:
        if level not in st["mySubGraph"]:
            corner = groups.block_corner(st["myCoords"], level)
            st["mySubGraph"][level] = agg.make_accumulator(corner, level)
        return st["mySubGraph"][level]

    # -- Rule 1: Condition : start = true ------------------------------------
    def cond_start(ctx: Context) -> bool:
        return bool(ctx.state["start"]) and not ctx.state["done"]

    def act_start(ctx: Context) -> None:
        st = ctx.state
        st["start"] = False
        st["mySubGraph"][0] = agg.local(st["myCoords"])
        st["recLevel"] = 0
        st["transmit"] = True
        ctx.charge(agg.local_operations(st["myCoords"]))

    # -- Rule 2: Condition : received mGraph ----------------------------------
    def cond_receive(ctx: Context) -> bool:
        return ctx.message is not None and ctx.message.kind == MGRAPH

    def act_receive(ctx: Context) -> None:
        st = ctx.state
        msg = ctx.message
        assert msg is not None
        level = msg.level
        senders = st["sendersMerged"].setdefault(level, set())
        if msg.sender in senders:
            return  # duplicate child summary (post-failover re-send)
        senders.add(msg.sender)
        accumulator = _ensure_accumulator(st, level)
        agg.merge(accumulator, msg.payload)
        st["msgsReceived"][level] += 1
        ctx.charge(agg.merge_operations(msg.payload))

    # -- Rule 3: Condition : transmit = true ----------------------------------
    def cond_transmit(ctx: Context) -> bool:
        return bool(ctx.state["transmit"])

    def act_transmit(ctx: Context) -> None:
        st = ctx.state
        coord = st["myCoords"]
        st["transmit"] = False
        completed = st["recLevel"]
        payload = agg.finalize(st["mySubGraph"][completed])
        if completed == max_level:
            st["exfiltrated"] = payload
            st["done"] = True
            ctx.exfiltrate(payload)
            return
        dest = groups.leader(coord, completed + 1)
        if dest == coord:
            # The paper's "message from the node to itself": a zero-cost
            # local merge of the node's own quadrant summary.
            accumulator = _ensure_accumulator(st, completed + 1)
            agg.merge(accumulator, payload)
            st["ownMerged"][completed + 1] = True
            st["recLevel"] = completed + 1
            ctx.charge(agg.merge_operations(payload))
        else:
            ctx.send(
                dest,
                Message(
                    kind=MGRAPH,
                    sender=coord,
                    payload=payload,
                    level=completed + 1,
                    size_units=agg.size_of(payload),
                ),
            )
            higher = [k for k in role_of[coord].lead_levels if k > completed]
            if higher:
                # Non-nested leader policy: this node still anchors a
                # higher merge level despite delegating its local data.
                st["recLevel"] = min(higher)
            else:
                st["done"] = True

    # -- Rule 4: Condition : msgsReceived[recLevel] = 3 ------------------------
    def cond_advance(ctx: Context) -> bool:
        st = ctx.state
        if st["transmit"] or st["done"]:
            return False
        level = st["recLevel"]
        role = role_of[st["myCoords"]]
        if level < 1 or level not in role.external:
            return False
        if st["msgsReceived"][level] < role.external[level]:
            return False
        if role.own[level] and not st["ownMerged"][level]:
            return False
        return True

    def act_advance(ctx: Context) -> None:
        ctx.state["transmit"] = True

    return (
        Rule("start", cond_start, act_start),
        Rule("transmit", cond_transmit, act_transmit),
        Rule("receive-mGraph", cond_receive, act_receive, consumes_message=True),
        Rule("advance-level", cond_advance, act_advance),
    )


# ---------------------------------------------------------------------------
# Simple algebraic aggregations (tests, node-property queries)
# ---------------------------------------------------------------------------


class CountAggregation(Aggregation):
    """Counts feature nodes: ``local`` is 0/1, ``merge`` is addition.

    ``feature`` maps a grid coordinate to a boolean (is this a feature
    node for the query?).  The exfiltrated root value equals the number of
    feature nodes in the grid — a degenerate topographic query.
    """

    def __init__(self, feature: Callable[[GridCoord], bool]):
        self.feature = feature

    def local(self, coord: GridCoord) -> int:
        return 1 if self.feature(coord) else 0

    def make_accumulator(self, corner: GridCoord, level: int) -> List[int]:
        return [0]

    def merge(self, accumulator: List[int], payload: int) -> None:
        accumulator[0] += payload

    def finalize(self, accumulator: Any) -> int:
        if isinstance(accumulator, list):
            return accumulator[0]
        return accumulator


class MaxAggregation(Aggregation):
    """In-network maximum of per-node readings (e.g. hottest PoC)."""

    def __init__(self, reading: Callable[[GridCoord], float]):
        self.reading = reading

    def local(self, coord: GridCoord) -> float:
        return float(self.reading(coord))

    def make_accumulator(self, corner: GridCoord, level: int) -> List[float]:
        return [float("-inf")]

    def merge(self, accumulator: List[float], payload: float) -> None:
        accumulator[0] = max(accumulator[0], payload)

    def finalize(self, accumulator: Any) -> float:
        if isinstance(accumulator, list):
            return accumulator[0]
        return accumulator


class SumAggregation(Aggregation):
    """In-network sum of per-node values (e.g. residual energy totals)."""

    def __init__(self, value: Callable[[GridCoord], float]):
        self.value = value

    def local(self, coord: GridCoord) -> float:
        return float(self.value(coord))

    def make_accumulator(self, corner: GridCoord, level: int) -> List[float]:
        return [0.0]

    def merge(self, accumulator: List[float], payload: float) -> None:
        accumulator[0] += payload

    def finalize(self, accumulator: Any) -> float:
        if isinstance(accumulator, list):
            return accumulator[0]
        return accumulator


#: The textual program specification of Figure 4, regenerated verbatim
#: (modulo the two documented clarifications) by ``render_figure4``.
FIGURE4_TEXT = """\
State (initial values) :
    start(= false), recLevel(= 0), maxrecLevel,
    mySubGraph[0..maxrecLevel](= NULL),
    myCoords, msgsReceived[1..maxrecLevel](= 0),
    transmit(= false)

Message alphabet :
    mGraph = {senderCoord, msubGraph, mrecLevel}

Condition : start = true
Action    : start = false
            compute mySubGraph[recLevel] from intra-cell readings
            transmit = true

Condition : received mGraph
Action    : merge(mGraph, mySubGraph[mrecLevel])
            msgsReceived[mrecLevel]++

Condition : transmit = true
Action    : message = {myCoords, mySubGraph[recLevel], recLevel + 1}
            if (recLevel = maxrecLevel)
                exfiltrate message
            else if (Leader(recLevel + 1) = myCoords)
                merge(message, mySubGraph[recLevel + 1])   // self message
                recLevel = recLevel + 1
            else
                send message to Leader(recLevel + 1)
            transmit = false

Condition : msgsReceived[recLevel] = 3 (all external children merged)
Action    : transmit = true
"""
