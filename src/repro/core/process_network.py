"""Kahn process networks: an alternative model of computation.

Figure 1 of the paper lists the candidate formalisms for the
architecture-independent algorithm specification: *"Task flow, CSP, FSM,
Process network"*.  The task-graph model (``repro.core.taskgraph``) covers
task flow and the reactive rule programs cover FSMs; this module supplies
the process-network option: deterministic Kahn semantics (processes
communicate over unbounded-order FIFO channels; reads block, writes are
asynchronous up to a capacity), useful for streaming/pipelined in-network
computations that the single-shot reduction model does not express.

Processes are Python generators that ``yield`` requests:

* ``("read", channel)`` — suspends until a token is available; the
  ``yield`` expression evaluates to the token.
* ``("write", channel, value)`` — enqueues a token (suspends while the
  channel is at capacity).
* ``("compute", operations)`` — accounts computation cost.

When processes are placed on virtual-grid nodes, each token transfer is
charged the usual per-hop tx/rx cost over the XY route between the
endpoints' nodes, and token arrival times respect path latency — the same
cost discipline as every other executor in the library.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Generator, Optional, Tuple

from .coords import GridCoord
from .cost_model import CostModel, EnergyLedger, UniformCostModel
from .network_model import OrientedGrid


class DeadlockError(RuntimeError):
    """Raised when no process can make progress but some are unfinished."""


@dataclass
class Channel:
    """A FIFO channel between two processes.

    ``capacity`` bounds the number of in-flight tokens (None = unbounded,
    the classical Kahn setting); ``token_units`` is the data size charged
    per token when the network is mapped onto the grid.
    """

    name: str
    capacity: Optional[int] = None
    token_units: float = 1.0
    _queue: Deque[Tuple[float, Any]] = field(default_factory=deque, repr=False)
    writer: Optional[str] = field(default=None, repr=False)
    reader: Optional[str] = field(default=None, repr=False)
    tokens_transferred: int = field(default=0, repr=False)

    def _full(self) -> bool:
        return self.capacity is not None and len(self._queue) >= self.capacity


#: The request protocol a process generator yields.
ProcessBody = Callable[[], Generator[Tuple, Any, None]]


@dataclass
class _ProcState:
    name: str
    gen: Generator[Tuple, Any, None]
    node: Optional[GridCoord]
    clock: float = 0.0
    blocked_on: Optional[Tuple[str, Channel]] = None
    pending_value: Any = None
    finished: bool = False


class ProcessNetwork:
    """A Kahn process network with optional grid placement.

    Parameters
    ----------
    grid:
        If given, processes may be placed on virtual nodes and channel
        traffic is charged to the ledger over XY routes.
    cost_model:
        Cost functions for mapped execution.
    """

    def __init__(
        self,
        grid: Optional[OrientedGrid] = None,
        cost_model: Optional[CostModel] = None,
    ):
        self.grid = grid
        self.cost_model = cost_model or UniformCostModel()
        self.ledger = EnergyLedger()
        self._channels: Dict[str, Channel] = {}
        self._processes: Dict[str, _ProcState] = {}
        self._bodies: Dict[str, ProcessBody] = {}
        self._placements: Dict[str, GridCoord] = {}

    # -- construction -----------------------------------------------------------

    def add_channel(
        self,
        name: str,
        capacity: Optional[int] = None,
        token_units: float = 1.0,
    ) -> Channel:
        """Declare a channel; raises on duplicates."""
        if name in self._channels:
            raise ValueError(f"duplicate channel {name!r}")
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        channel = Channel(name=name, capacity=capacity, token_units=token_units)
        self._channels[name] = channel
        return channel

    def add_process(
        self,
        name: str,
        body: ProcessBody,
        node: Optional[GridCoord] = None,
    ) -> None:
        """Declare a process; ``body()`` must return a fresh generator.

        ``node`` places the process on a grid node (required for cost
        accounting when the network has a grid).
        """
        if name in self._processes or name in self._bodies:
            raise ValueError(f"duplicate process {name!r}")
        if node is not None:
            if self.grid is None:
                raise ValueError("cannot place processes without a grid")
            self.grid.validate_member(node)
            self._placements[name] = node
        self._bodies[name] = body

    def connect(self, channel: str, writer: str, reader: str) -> None:
        """Fix a channel's single writer and single reader (Kahn)."""
        ch = self._channels[channel]
        if ch.writer is not None or ch.reader is not None:
            raise ValueError(f"channel {channel!r} already connected")
        if writer not in self._bodies or reader not in self._bodies:
            raise KeyError("writer and reader must be declared processes")
        ch.writer = writer
        ch.reader = reader

    def channel(self, name: str) -> Channel:
        """Look up a channel by name."""
        return self._channels[name]

    # -- execution -----------------------------------------------------------------

    def run(self, max_steps: int = 1_000_000) -> Dict[str, float]:
        """Execute until every process finishes.

        Returns ``process name -> finish time``.  Raises
        :class:`DeadlockError` if the network blocks permanently and
        :class:`RuntimeError` past ``max_steps`` scheduler iterations.
        """
        self._processes = {
            name: _ProcState(
                name=name,
                gen=body(),
                node=self._placements.get(name),
            )
            for name, body in self._bodies.items()
        }
        for state in self._processes.values():
            self._advance(state, first=True)

        steps = 0
        while True:
            steps += 1
            if steps > max_steps:
                raise RuntimeError(f"exceeded {max_steps} scheduler steps")
            progressed = False
            unfinished = [p for p in self._processes.values() if not p.finished]
            if not unfinished:
                break
            for state in unfinished:
                if self._try_unblock(state):
                    progressed = True
            if not progressed:
                blocked = {
                    p.name: (p.blocked_on[0], p.blocked_on[1].name)
                    for p in unfinished
                    if p.blocked_on
                }
                raise DeadlockError(f"process network deadlocked: {blocked}")
        return {name: p.clock for name, p in self._processes.items()}

    # -- internals ---------------------------------------------------------------

    def _charge_transfer(self, ch: Channel, send_time: float) -> float:
        """Charge one token's movement; return its arrival time."""
        ch.tokens_transferred += 1
        if self.grid is None or ch.writer is None or ch.reader is None:
            return send_time
        src = self._placements.get(ch.writer)
        dst = self._placements.get(ch.reader)
        if src is None or dst is None:
            return send_time
        path = self.grid.route(src, dst)
        return send_time + self.cost_model.charge_path(self.ledger, path, ch.token_units)

    def _advance(self, state: _ProcState, first: bool = False, value: Any = None) -> None:
        """Resume a process until it blocks or finishes."""
        try:
            request = state.gen.send(None if first else value)
        except StopIteration:
            state.finished = True
            return
        while True:
            kind = request[0]
            if kind == "compute":
                ops = float(request[1])
                if state.node is not None:
                    self.ledger.charge(
                        state.node, self.cost_model.compute_energy(ops), "compute"
                    )
                state.clock += self.cost_model.compute_latency(ops)
                try:
                    request = state.gen.send(None)
                except StopIteration:
                    state.finished = True
                    return
                continue
            if kind == "write":
                _, ch, token = request
                if ch._full():
                    state.blocked_on = ("write", ch)
                    state.pending_value = token
                    return
                arrival = self._charge_transfer(ch, state.clock)
                ch._queue.append((arrival, token))
                try:
                    request = state.gen.send(None)
                except StopIteration:
                    state.finished = True
                    return
                continue
            if kind == "read":
                _, ch = request
                if not ch._queue:
                    state.blocked_on = ("read", ch)
                    return
                arrival, token = ch._queue.popleft()
                state.clock = max(state.clock, arrival)
                try:
                    request = state.gen.send(token)
                except StopIteration:
                    state.finished = True
                    return
                continue
            raise ValueError(f"unknown request {request!r} from {state.name}")

    def _try_unblock(self, state: _ProcState) -> bool:
        if state.blocked_on is None:
            return False
        kind, ch = state.blocked_on
        if kind == "read":
            if not ch._queue:
                return False
            arrival, token = ch._queue.popleft()
            state.clock = max(state.clock, arrival)
            state.blocked_on = None
            self._advance(state, value=token)
            return True
        # blocked write
        if ch._full():
            return False
        arrival = self._charge_transfer(ch, state.clock)
        ch._queue.append((arrival, state.pending_value))
        state.blocked_on = None
        state.pending_value = None
        self._advance(state, value=None)
        return True
