"""Execution of synthesized programs on the virtual architecture.

The paper's design flow evaluates an algorithm *on the virtual
architecture* before any deployment exists: the virtual topology plus the
cost functions are enough to run the synthesized program and measure
latency, energy, and message counts (Section 2's "rapid first-order
performance estimation", made exact by actually executing the rules).

:func:`execute_round` is the one event-driven design-time driver.  It
runs the grid's Figure 4 program and the tree program alike: every node of
``spec.topology`` (a :class:`~repro.core.network_model.VirtualTopology`)
owns a :class:`~repro.core.program.NodeProgram`, and SEND effects are
relayed along ``topology.route`` (XY on the grid, the unique path on a
tree) and priced by :meth:`~repro.core.cost_model.CostModel.charge_path`:
per-hop tx/rx energy and store-and-forward latency, exactly as Section 4.2
prescribes for member-to-leader traffic.  The slot-synchronous
counterpart is ``repro.core.sync_executor``.

The heavier physical-network path (virtual processes bound to elected
physical nodes, messages multi-hopped through the emulated grid) lives in
``repro.runtime.stack``; both drivers execute the *same* synthesized
program objects — the core promise of the virtual-architecture abstraction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from .coords import GridCoord
from .cost_model import CostModel, EnergyLedger, PerformanceReport, UniformCostModel
from .program import EXFILTRATE, SEND, Message, NodeProgram
from .synthesis import SynthesizedProgram
from .tree_synthesis import TreeProgramSpec

#: a synthesized program: per-node rule programs over ``spec.topology``
ProgramSpec = Union[SynthesizedProgram, TreeProgramSpec]


@dataclass
class ExecutionResult:
    """Outcome of one round executed on the virtual grid.

    Attributes
    ----------
    exfiltrated:
        ``coord -> payload`` for every node that exfiltrated a result
        (one entry — the root — for a full reduction; one per storage
        leader for partial reductions).
    ledger:
        Per-virtual-node energy consumption.
    latency:
        Completion time of the last exfiltration (or of the last event if
        nothing exfiltrated).
    messages:
        Number of logical messages sent (hop count is reflected in energy
        and latency, not here).
    data_units:
        Sum of message sizes.
    hop_units:
        Sum over messages of ``size * hops`` — the paper's
        communication-cost measure.
    events:
        Number of stimuli processed.
    """

    exfiltrated: Dict[GridCoord, Any]
    ledger: EnergyLedger
    latency: float
    messages: int
    data_units: float
    hop_units: float
    events: int

    def report(self) -> PerformanceReport:
        """Standard metric bundle for benchmark rows."""
        return PerformanceReport.from_ledger(
            self.ledger,
            latency=self.latency,
            messages=self.messages,
            data_units=self.data_units,
        )

    @property
    def root_payload(self) -> Any:
        """The single exfiltrated payload (raises unless exactly one)."""
        if len(self.exfiltrated) != 1:
            raise ValueError(
                f"expected exactly one exfiltration, got {len(self.exfiltrated)}"
            )
        return next(iter(self.exfiltrated.values()))


def execute_round(
    spec: ProgramSpec,
    cost_model: Optional[CostModel] = None,
    charge_compute: bool = True,
) -> ExecutionResult:
    """Execute one round of ``spec`` on its virtual topology: start every
    node at t=0 and drain events.

    ``spec`` is a grid program or a tree program; each SEND is routed by
    ``spec.topology.route`` and priced by :meth:`CostModel.charge_path`.
    ``cost_model`` defaults to the paper's uniform model.  With
    ``charge_compute`` False computation is free (pure communication
    analysis — the configuration matching the paper's "step" counting).
    """
    cm = cost_model or UniformCostModel()
    topology = spec.topology
    ledger = EnergyLedger()
    programs: Dict[GridCoord, NodeProgram] = {}
    node_ready: Dict[GridCoord, float] = {}
    exfiltrated: Dict[GridCoord, Any] = {}
    final_time = 0.0
    messages = 0
    data_units = 0.0
    hop_units = 0.0
    events = 0

    # (time, seq, coord, message-or-None); seq breaks ties deterministically.
    queue: List[Tuple[float, int, GridCoord, Optional[Message]]] = []
    seq = 0
    for coord in topology.nodes():
        programs[coord] = spec.program_for(coord)
        node_ready[coord] = 0.0
        heapq.heappush(queue, (0.0, seq, coord, None))
        seq += 1

    while queue:
        time, _, coord, msg = heapq.heappop(queue)
        events += 1
        finish = max(time, node_ready[coord])
        program = programs[coord]
        effects = program.start() if msg is None else program.deliver(msg)

        if charge_compute:
            ops = sum(e.operations for e in effects)
            if ops:
                ledger.charge(coord, cm.compute_energy(ops), "compute")
            finish += cm.compute_latency(ops)
        node_ready[coord] = finish
        final_time = max(final_time, finish)

        for effect in effects:
            if effect.kind == SEND:
                assert effect.destination is not None and effect.message is not None
                dest = effect.destination
                size = effect.message.size_units
                path = topology.route(coord, dest)
                arrival = finish + cm.charge_path(ledger, path, size)
                heapq.heappush(queue, (arrival, seq, dest, effect.message))
                seq += 1
                messages += 1
                data_units += size
                hop_units += size * (len(path) - 1)
            elif effect.kind == EXFILTRATE:
                exfiltrated[coord] = effect.payload

    latency = (
        max(node_ready[c] for c in exfiltrated) if exfiltrated else final_time
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
