"""Synchronous (TDMA-style) execution of synthesized programs.

Section 2: *"Depending on the type of network, the model could support
synchronous algorithms (e.g., TDMA), purely asynchronous message-passing
paradigms, or a combination of the two."*  The main executor
(``repro.core.executor.execute_round``) is the asynchronous one;
:func:`execute_round_sync` is the synchronous counterpart: execution
proceeds in global **slots**, every message sent in slot *t* over *h*
hops is delivered at the start of slot ``t + h * ceil(size)`` (one
hop-unit per slot, as a TDMA schedule would provision), and rule programs
fire only at slot boundaries, each slot's deliveries ordered by
(destination, sender).  Sends are routed over ``spec.topology`` and
priced by the same :meth:`~repro.core.cost_model.CostModel.charge_path`.

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
from .executor import ExecutionResult, ProgramSpec
from .program import EXFILTRATE, SEND, Message, NodeProgram


#: safety bound on the slot loop
MAX_SLOTS = 1_000_000


def execute_round_sync(
    spec: ProgramSpec, cost_model: Optional[CostModel] = None
) -> ExecutionResult:
    """Execute one slot-synchronous round of ``spec``; all nodes start in
    slot 0.

    Energy is slot-independent and matches :func:`execute_round` with
    charged compute exactly (``cost_model`` defaults to the paper's
    uniform model); only the latency is counted in slots.
    """
    cm = cost_model or UniformCostModel()
    topology = spec.topology
    ledger = EnergyLedger()
    programs: Dict[GridCoord, NodeProgram] = {
        coord: spec.program_for(coord) for coord in topology.nodes()
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
                path = topology.route(coord, dest)
                cm.charge_path(ledger, path, size)
                hops = len(path) - 1
                arrival = slot + max(1, hops * math.ceil(size))
                in_flight.setdefault(arrival, []).append((dest, effect.message))
                messages += 1
                data_units += size
                hop_units += size * hops
                last_slot = max(last_slot, arrival)
            elif effect.kind == EXFILTRATE:
                exfiltrated[coord] = effect.payload
                last_slot = max(last_slot, slot)

    # slot 0: every node senses
    for coord, program in programs.items():
        events += 1
        realize(coord, program.start(), 0)

    slot = 0
    while in_flight:
        slot += 1
        if slot > MAX_SLOTS:
            raise RuntimeError(f"exceeded {MAX_SLOTS} slots")
        deliveries = in_flight.pop(slot, None)
        if not deliveries:
            continue
        # deterministic order: by destination, then sender
        deliveries.sort(key=lambda dm: (dm[0], dm[1].sender))
        for dest, message in deliveries:
            events += 1
            realize(dest, programs[dest].deliver(message), slot)

    return ExecutionResult(
        exfiltrated=exfiltrated,
        ledger=ledger,
        latency=float(last_slot),
        messages=messages,
        data_units=data_units,
        hop_units=hop_units,
        events=events,
    )
