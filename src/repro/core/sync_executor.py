"""Synchronous (TDMA-style) execution of synthesized programs.

Section 2: *"Depending on the type of network, the model could support
synchronous algorithms (e.g., TDMA), purely asynchronous message-passing
paradigms, or a combination of the two."*  The main executor
(``repro.core.executor``) is the asynchronous one; this module provides the
synchronous counterpart: execution proceeds in global **slots**, every
message sent in slot *t* over *h* hops is delivered at the start of slot
``t + h * ceil(size)`` (one hop-unit per slot, as a TDMA schedule would
provision), and rule programs fire only at slot boundaries.

The two executors run the *same* program objects and must produce the
*same* results — only the latency accounting differs (slotted, and
therefore quantized up).  The async-vs-sync comparison is the model
ablation of experiment E1/E2 in DESIGN.md.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from .coords import GridCoord
from .cost_model import CostModel, EnergyLedger, UniformCostModel
from .executor import ExecutionResult
from .program import EXFILTRATE, SEND, Message, NodeProgram
from .synthesis import SynthesizedProgram


class SynchronousGridExecutor:
    """Slot-synchronous driver for a :class:`SynthesizedProgram`.

    Parameters
    ----------
    spec:
        The synthesized program.
    cost_model:
        Energy accounting (energy is slot-independent and matches the
        asynchronous executor exactly).
    max_slots:
        Safety bound on the slot loop.
    """

    def __init__(
        self,
        spec: SynthesizedProgram,
        cost_model: Optional[CostModel] = None,
        max_slots: int = 1_000_000,
    ):
        self.spec = spec
        self.cost_model = cost_model or UniformCostModel()
        self.max_slots = max_slots
        self.grid = spec.groups.grid

    def run(self) -> ExecutionResult:
        """Execute one round; all nodes start in slot 0."""
        cm = self.cost_model
        grid = self.grid
        ledger = EnergyLedger()
        programs: Dict[GridCoord, NodeProgram] = {
            coord: self.spec.program_for(coord) for coord in grid.nodes()
        }
        exfiltrated: Dict[GridCoord, Any] = {}
        # slot -> list of (dest, message) deliveries
        in_flight: Dict[int, List[Tuple[GridCoord, Message]]] = {}
        messages = 0
        data_units = 0.0
        hop_units = 0.0
        events = 0
        last_slot = 0

        def realize(coord: GridCoord, effects, slot: int) -> None:
            nonlocal messages, data_units, hop_units, last_slot
            ops = sum(e.operations for e in effects)
            if ops:
                ledger.charge(coord, cm.compute_energy(ops), "compute")
            for effect in effects:
                if effect.kind == SEND:
                    assert effect.destination and effect.message
                    dest = effect.destination
                    size = effect.message.size_units
                    path = grid.route(coord, dest)
                    hops = len(path) - 1
                    for a, b in zip(path, path[1:]):
                        ledger.charge(a, cm.tx_energy(size), "tx")
                        ledger.charge(b, cm.rx_energy(size), "rx")
                    arrival = slot + max(1, hops * math.ceil(size))
                    in_flight.setdefault(arrival, []).append(
                        (dest, effect.message)
                    )
                    messages += 1
                    data_units += size
                    hop_units += size * hops
                    last_slot = max(last_slot, arrival)
                elif effect.kind == EXFILTRATE:
                    exfiltrated[coord] = effect.payload
                    last_slot = max(last_slot, slot)

        # slot 0: every node senses
        for coord in grid.nodes():
            effects = programs[coord].start()
            events += 1
            realize(coord, effects, 0)

        slot = 0
        while in_flight:
            slot += 1
            if slot > self.max_slots:
                raise RuntimeError(f"exceeded {self.max_slots} slots")
            deliveries = in_flight.pop(slot, None)
            if not deliveries:
                continue
            # deterministic order: by destination, then sender
            deliveries.sort(key=lambda dm: (dm[0], dm[1].sender))
            for dest, message in deliveries:
                effects = programs[dest].deliver(message)
                events += 1
                realize(dest, effects, slot)

        return ExecutionResult(
            exfiltrated=exfiltrated,
            ledger=ledger,
            latency=float(last_slot),
            messages=messages,
            data_units=data_units,
            hop_units=hop_units,
            events=events,
        )


def execute_round_sync(
    spec: SynthesizedProgram, cost_model: Optional[CostModel] = None
) -> ExecutionResult:
    """Convenience wrapper: run one synchronous round."""
    return SynchronousGridExecutor(spec, cost_model=cost_model).run()
