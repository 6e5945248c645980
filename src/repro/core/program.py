"""Reactive, event-driven node program model (Section 4.3).

The paper synthesizes algorithms into programs for *"a reactive,
event-driven programming model that is supported by state-of-the-art code
generation frameworks and programming languages for sensor networks"*
(TinyGALS, nesC).  A program is a set of **guarded rules**: each rule has a
*Condition* over the node's state (and the just-delivered message, if any)
and an *Action* that updates state and emits effects (sends, exfiltration).

This module provides the generic machinery; ``repro.core.synthesis``
instantiates it with the concrete Figure 4 program.

Semantics
---------
A :class:`NodeProgram` instance holds one node's state.  Drivers feed it
*stimuli* — :meth:`NodeProgram.start` and :meth:`NodeProgram.deliver` — and
after each stimulus the engine repeatedly evaluates rules until none fires
(run-to-completion), collecting the emitted :class:`Effect` objects for the
driver (an executor or simulator backend) to realize.  An asynchronous data
flow model of computation is assumed: a rule never blocks waiting for
input; information is incrementally processed as it arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from .coords import GridCoord


@dataclass
class Message:
    """A message of the program's alphabet.

    The case-study alphabet is ``mGraph = {senderCoord, msubGraph,
    mrecLevel}`` (Figure 4); generic programs may use any payload under any
    ``kind`` tag.
    """

    kind: str
    sender: GridCoord
    payload: Any = None
    level: int = 0
    size_units: float = 1.0


@dataclass
class Effect:
    """An externally visible action requested by a rule.

    ``SEND`` carries (destination coordinate, message); ``EXFILTRATE``
    carries the final payload out of the network; ``LOG`` is a trace
    record.  Compute effort is reported via ``operations`` so the driver
    can charge the cost model.
    """

    kind: str  # "send" | "exfiltrate" | "log"
    destination: Optional[GridCoord] = None
    message: Optional[Message] = None
    payload: Any = None
    operations: float = 0.0


SEND = "send"
EXFILTRATE = "exfiltrate"
LOG = "log"


class Context:
    """What a rule sees when it runs: the node state, the triggering
    message (if the stimulus was a delivery), and an effect buffer."""

    def __init__(self, state: Dict[str, Any], message: Optional[Message] = None):
        self.state = state
        self.message = message
        self.effects: List[Effect] = []

    # -- effect emission helpers used by rule actions -------------------------

    def send(
        self,
        destination: GridCoord,
        message: Message,
        operations: float = 0.0,
    ) -> None:
        """Request transmission of ``message`` to ``destination``."""
        self.effects.append(
            Effect(SEND, destination=destination, message=message, operations=operations)
        )

    def exfiltrate(self, payload: Any, operations: float = 0.0) -> None:
        """Request exfiltration of the final result out of the network."""
        self.effects.append(Effect(EXFILTRATE, payload=payload, operations=operations))

    def log(self, payload: Any) -> None:
        """Emit a trace record."""
        self.effects.append(Effect(LOG, payload=payload))

    def charge(self, operations: float) -> None:
        """Report pure computation effort with no other effect."""
        self.effects.append(Effect(LOG, payload=None, operations=operations))


@dataclass(frozen=True)
class Rule:
    """One guarded command: ``Condition : ... Action : ...`` of Figure 4.

    ``condition`` is a predicate over the :class:`Context`; ``action``
    mutates state through the context and may emit effects; it keeps no
    node state, so one rule serves every node.  ``consumes_message`` rules
    only run for the stimulus that delivered a message (*received mGraph*).
    """

    name: str
    condition: Callable[[Context], bool]
    action: Callable[[Context], None]
    consumes_message: bool = False


class NodeProgram:
    """A set of rules plus one node's state, with run-to-completion firing.

    Parameters
    ----------
    rules:
        Evaluated in order; the first enabled rule fires, then evaluation
        restarts (so rule priority is list order, and actions enabling
        other rules cascade within the same stimulus); programs given one
        tuple share it.
    state:
        The initial state dictionary (the Figure 4 ``State`` block).
    max_firings:
        Safety valve against non-terminating rule sets.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        state: Dict[str, Any],
        max_firings: int = 100_000,
    ):
        self.rules = tuple(rules)
        self.state = state
        self.max_firings = max_firings
        self.firing_log: List[str] = []

    # -- stimuli ---------------------------------------------------------------

    def start(self) -> List[Effect]:
        """Deliver the start-of-round stimulus (sets ``start`` true)."""
        self.state["start"] = True
        return self._run(None)

    def deliver(self, message: Message) -> List[Effect]:
        """Deliver a message and run enabled rules to completion."""
        return self._run(message)

    def settle(self) -> List[Effect]:
        """Re-evaluate rules with no new stimulus (used after external
        state changes in tests)."""
        return self._run(None)

    # -- engine ------------------------------------------------------------------

    def _run(self, message: Optional[Message]) -> List[Effect]:
        ctx = Context(self.state, message)
        message_pending = message is not None
        firings = 0
        while True:
            fired = False
            for rule in self.rules:
                if rule.consumes_message and not message_pending:
                    continue
                ctx.message = message if rule.consumes_message else None
                if rule.condition(ctx):
                    rule.action(ctx)
                    self.firing_log.append(rule.name)
                    if rule.consumes_message:
                        message_pending = False
                    fired = True
                    firings += 1
                    if firings > self.max_firings:
                        raise RuntimeError(
                            f"rule program exceeded {self.max_firings} firings; "
                            f"last rule: {rule.name!r}"
                        )
                    break
            if not fired:
                break
        return ctx.effects

    def snapshot(self) -> Dict[str, Any]:
        """Shallow copy of the state (for assertions in tests)."""
        return dict(self.state)
