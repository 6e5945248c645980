"""The full deployed stack: virtual architecture bound to a real network.

This module closes the paper's loop (Figure 1, bottom): the *same*
synthesized program that the design-time executor ran on the virtual grid
executes here on physical nodes —

1. :func:`deploy` runs the two Section 5 protocols (topology emulation,
   process binding) over the deployment;
2. :class:`DeployedStack.run_application` hosts each virtual node's rule
   program on the elected leader of its cell; SEND effects travel through
   the transport layer (XY cell routing over the emulated grid, gateway
   chains, leader gradients);
3. results, energy (drawn from real node batteries), time, and message
   counts are collected so EXPERIMENTS.md can compare design-time
   estimates against "deployed" measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.coords import GridCoord
from ..core.cost_model import CostModel, EnergyLedger, UniformCostModel
from ..core.program import EXFILTRATE, SEND, Effect, NodeProgram
from ..core.synthesis import SynthesizedProgram
from ..deployment.topology import RealNetwork
from ..scenario import LinkGate, LinkModel, link_model_from_dict
from ..simulator.engine import Simulator
from ..simulator.network import Packet, WirelessMedium
from ..simulator.process import ProcessHost
from .binding import Binding, BindingResult, Metric, bind_processes, distance_to_center_metric
from .faults import FaultInjector, FaultPlan, FaultReport, HealingConfig
from .routing import TransportEnvelope, TransportProcess
from .topology_emulation import EmulatedTopology, EmulationResult, emulate_topology


@dataclass
class SetupReport:
    """Cost of bringing the virtual architecture up on the deployment."""

    emulation: EmulationResult
    binding: BindingResult

    @property
    def total_messages(self) -> int:
        """Protocol transmissions across both phases."""
        return self.emulation.messages + self.binding.messages

    @property
    def total_energy(self) -> float:
        """Energy drawn by both phases."""
        return self.emulation.energy + self.binding.energy


@dataclass
class DeployedRunResult:
    """Outcome of one application round on the deployed stack.

    ``exfiltrated`` is keyed by *cell* (virtual coordinate), matching the
    design-time :class:`~repro.core.executor.ExecutionResult` so the two
    can be diffed directly.
    """

    exfiltrated: Dict[GridCoord, Any]
    ledger: EnergyLedger
    latency: float
    transmissions: int
    drops: int
    delivered_envelopes: int
    events_processed: int = 0
    rejected_frames: int = 0
    fault_report: Optional[FaultReport] = None
    link_faded: Optional[int] = None

    @property
    def root_payload(self) -> Any:
        """The single exfiltrated payload (raises unless exactly one)."""
        if len(self.exfiltrated) != 1:
            raise ValueError(
                f"expected exactly one exfiltration, got {len(self.exfiltrated)}"
            )
        return next(iter(self.exfiltrated.values()))

    def fingerprint(self) -> str:
        """Stable digest of every deterministic observable of the round.

        Covers the energy ledger, traffic counters, latency, event count,
        rejected frames, (when fault injection ran) the full
        :class:`~repro.runtime.faults.FaultReport`, and (when a link model
        gated the round) the count of frames it faded — so a seeded fault
        or link-model run is byte-reproducible across processes and shards.
        """
        from ..simulator.trace import stable_digest

        parts: Tuple[Any, ...] = (
            self.ledger.fingerprint(),
            tuple(sorted((str(c), repr(v)) for c, v in self.exfiltrated.items())),
            self.transmissions,
            self.drops,
            self.delivered_envelopes,
            self.latency,
            self.events_processed,
            self.rejected_frames,
            None if self.fault_report is None else self.fault_report.fingerprint(),
        )
        # appended only when a link gate ran, so ungated runs (and runs
        # with the explicit UnitDisk default) keep their historic digests
        if self.link_faded is not None:
            parts = parts + (self.link_faded,)
        return stable_digest(parts)


class _Round:
    """One round of a :class:`DeployedStack`, and its medium's packet sink.

    A node is armed for the round exactly when the round's host holds its
    process: the starters join before the round starts, every other node
    on its first packet (:meth:`receive`).  ``processes`` are the stack's,
    which outlive rounds; the round itself is reachable only from its
    medium's sink, which the host's teardown clears.
    """

    __slots__ = ("processes", "host", "spec", "transport", "results", "counters")

    def __init__(
        self,
        processes: Dict[int, "_AppProcess"],
        host: ProcessHost,
        spec: SynthesizedProgram,
        transport: Dict[str, Any],
    ):
        self.processes = processes
        self.host = host
        self.spec = spec
        self.transport = transport  # the keywords of TransportProcess.arm
        self.results: Dict[GridCoord, Any] = {}
        self.counters = {"delivered": 0, "dropped": 0, "orphaned": 0}

    def join(self, nid: int, program: Optional[NodeProgram] = None) -> "_AppProcess":
        """Arm ``nid``'s process for this round, building it on the node's
        first act, and host it.  The process's first act follows."""
        proc = self.processes.get(nid)
        if proc is None:
            proc = self.processes[nid] = _AppProcess(self, program)
        else:
            proc.arm(self, program)
        self.host.add(nid, proc)
        return proc

    def receive(self, nid: int, packet: Packet) -> None:
        """The sink: hand ``packet`` to ``nid``'s process, arming it on the
        node's first packet of the round."""
        proc = self.host.processes.get(nid)
        if proc is None:
            proc = self.join(nid)
        proc.on_packet(packet)


class _AppProcess(TransportProcess):
    """Transport engine plus (on leaders) the synthesized rule program.

    A :class:`DeployedStack` builds one on a node's first act and arms it
    for each later round it acts in; the constructor takes the same
    arguments as :meth:`arm`.
    """

    __slots__ = ("program", "result_sink", "counters", "spec")

    def arm(self, rnd: _Round, program: Optional[NodeProgram]) -> None:
        """Set every per-round field for ``rnd``, hosting ``program``."""
        super().arm(**rnd.transport)
        self.program = program
        self.result_sink = rnd.results
        self.counters = rnd.counters
        self.spec = rnd.spec

    def on_start(self) -> None:
        super().on_start()  # arm the healing heartbeat/watch timers
        if self.program is not None:
            effects = self.program.start()
            self._realize(effects)

    def on_become_leader(self) -> None:
        # failover: adopt the cell's rule program state-fresh and restart
        # it — the quad-tree program's sender-dedup makes the re-sent
        # level-0 summary idempotent at the parent
        if self.program is None and self.spec is not None:
            self.program = self.spec.program_for(self.my_cell)
            self._realize(self.program.start())

    def _deliver(self, envelope: TransportEnvelope) -> None:
        self.counters["delivered"] += 1
        if self.program is None:
            self.counters["orphaned"] += 1
            return
        effects = self.program.deliver(envelope.inner)
        self._realize(effects)

    def _drop(self, envelope: TransportEnvelope, reason: str) -> None:
        super()._drop(envelope, reason)
        self.counters["dropped"] += 1

    def _realize(self, effects: List[Effect]) -> None:
        for effect in effects:
            if effect.kind == SEND:
                assert effect.destination is not None and effect.message is not None
                self.originate(
                    effect.destination,
                    effect.message,
                    size_units=effect.message.size_units,
                )
            elif effect.kind == EXFILTRATE:
                self.result_sink[self.my_cell] = effect.payload


class DeployedStack:
    """A virtual architecture brought up on a physical deployment.

    Construct via :func:`deploy`, which runs the setup protocols; then
    call :meth:`run_application` any number of times (each round uses a
    fresh simulator but drains the same node batteries, so lifetime
    studies can loop rounds until death).  A round arms only the processes
    that act in it (DESIGN.md §7, "Round reuse"): the stack builds a
    node's process on its first act and re-arms it on its first act of
    every later round.
    """

    def __init__(
        self,
        network: RealNetwork,
        topology: EmulatedTopology,
        binding: Binding,
        setup: SetupReport,
        cost_model: Optional[CostModel] = None,
    ):
        self.network = network
        self.topology = topology
        self.binding = binding
        self.setup = setup
        self.cost_model = cost_model or UniformCostModel()
        self._processes: Dict[int, _AppProcess] = {}
        self._gates: Dict[LinkModel, Optional[LinkGate]] = {}

    def make_harness(
        self,
        loss_rate: float = 0.0,
        rng: "np.random.Generator | int | None" = None,
        jitter: float = 0.0,
    ) -> Tuple[Simulator, WirelessMedium, ProcessHost]:
        """A fresh simulator/medium/host triple over this deployment.

        Every execution surface on the stack — application rounds and the
        serving engine (:class:`~repro.serve.engine.QueryEngine`, which
        keeps one harness alive across queries) — builds its radio world
        through here, so medium wiring and cost accounting stay identical
        everywhere.
        """
        sim = Simulator()
        medium = WirelessMedium(
            sim, self.network, cost_model=self.cost_model,
            loss_rate=loss_rate, rng=rng, jitter=jitter,
        )
        return sim, medium, ProcessHost(sim, medium)

    def run_application(
        self,
        spec: SynthesizedProgram,
        loss_rate: float = 0.0,
        rng: "np.random.Generator | int | None" = None,
        max_events: int = 10_000_000,
        reliable: bool = False,
        max_retries: int = 3,
        wire_format: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        healing: Optional[HealingConfig] = None,
        link_model: "LinkModel | Dict[str, Any] | None" = None,
    ) -> DeployedRunResult:
        """Execute one round of the synthesized application.

        ``spec``'s grid must match the cell decomposition (one virtual
        node per cell).  Every cell's elected leader hosts the rule
        program of its virtual coordinate; all nodes forward.  Only the
        processes with start work boot (the leaders; every node in a
        healing round), and the rest arm on their first packet, so
        ``events_processed`` and the ``max_events`` budget count no boot
        that does nothing.

        With ``reliable`` the transport uses hop-by-hop acknowledgements
        and up to ``max_retries`` retransmissions per hop (seeded
        exponential backoff between attempts), making rounds robust to
        ``loss_rate`` at the cost of ack traffic.
        ``wire_format`` routes every hop through the compact binary codec
        of :mod:`repro.runtime.wire` — observable results are identical;
        the codec just gets exercised end to end.

        ``fault_plan`` arms mid-run fault injection (DESIGN.md §10): its
        events fire at exact virtual times inside this round.  Supplying a
        plan enables the self-healing machinery with default
        :class:`~repro.runtime.faults.HealingConfig` parameters; pass
        ``healing`` explicitly to tune them (or to enable healing without
        injecting anything).  The returned result then carries a
        :class:`~repro.runtime.faults.FaultReport` and folds it into
        :meth:`DeployedRunResult.fingerprint`.

        ``link_model`` replaces the unit-disk radio with a
        :class:`~repro.scenario.LinkModel` (or its dict form; DESIGN.md
        §14), whose gate decides per directed link and per packet whether
        a frame is heard.  The stack builds one gate per model, on the
        model's first round, and its per-link packet counters carry on
        from round to round, so each round on the stack draws fresh fades.
        The result's ``link_faded`` counts the frames the round faded and
        folds into the fingerprint; :class:`~repro.scenario.UnitDisk`
        builds no gate, which keeps the round byte-identical to passing
        None.
        """
        if isinstance(link_model, dict):
            link_model = link_model_from_dict(link_model)
        elif link_model is not None and not isinstance(link_model, LinkModel):
            raise TypeError(
                f"link_model must be a LinkModel, dict, or None, got {link_model!r}"
            )
        side = self.network.cells.cells_per_side
        grid = spec.groups.grid
        if (grid.width, grid.height) != (side, side):
            raise ValueError(
                f"program grid {grid.width}x{grid.height} does not match "
                f"the {side}x{side} cell decomposition"
            )
        if healing is None and fault_plan is not None:
            healing = HealingConfig()
        report = FaultReport() if healing is not None else None
        sim, medium, host = self.make_harness(loss_rate=loss_rate, rng=rng)
        if link_model is not None and link_model not in self._gates:
            self._gates[link_model] = link_model.build_gate(self.network)
        gate = medium.link_gate = self._gates.get(link_model)
        faded = 0 if gate is None else gate.faded
        network, leaders = self.network, self.binding.leaders
        rnd = _Round(self._processes, host, spec, dict(
            topology=self.topology,
            binding=self.binding,
            reliable=reliable,
            max_retries=max_retries,
            wire_format=wire_format,
            healing=healing,
            fault_report=report,
        ))
        medium.receive = rnd.receive
        try:
            # the processes with start work arm and boot now, the rest
            # (non-leaders of a round without healing) on their first packet
            starters = network.alive_ids() if healing is not None else [
                nid for nid in leaders.values() if network.nodes[nid].alive
            ]
            for nid in starters:
                cell = network.cell_of(nid)
                rnd.join(nid, spec.program_for(cell) if leaders.get(cell) == nid else None)
            host.start()
            if fault_plan:
                injector = FaultInjector(fault_plan, network, self.binding, report)
                injector.arm(sim, medium)
            sim.run(max_events=max_events)
        finally:
            host.teardown()
            # a corrupting fault plan's transform is the injector's bound
            # method, and the injector holds the medium: break that cycle too
            medium.tx_transform = None
        counters = rnd.counters
        if report is not None:
            report.orphaned_deliveries = counters["orphaned"]
        return DeployedRunResult(
            exfiltrated=rnd.results,
            ledger=medium.ledger,
            latency=sim.now,
            transmissions=medium.stats.transmissions,
            drops=counters["dropped"],
            delivered_envelopes=counters["delivered"],
            events_processed=sim.events_processed,
            rejected_frames=sum(p.rejected_frames for p in host.processes.values()),
            fault_report=report,
            link_faded=None if gate is None else gate.faded - faded,
        )


def deploy(
    network: RealNetwork,
    cost_model: Optional[CostModel] = None,
    metric: Metric = distance_to_center_metric,
    strict: bool = True,
) -> DeployedStack:
    """Bring the virtual architecture up on ``network``.

    Runs topology emulation then process binding, each a lossless flood
    to quiescence; with ``strict`` the Section 5 preconditions (coverage,
    intra-cell connectivity, global connectivity) are validated first and
    violations raise :class:`RuntimeError` listing the problems.
    """
    if strict:
        problems = network.validate_protocol_preconditions()
        if problems:
            raise RuntimeError(
                "deployment violates Section 5 preconditions: "
                + "; ".join(problems)
            )
    emulation = emulate_topology(network, cost_model=cost_model)
    binding_result = bind_processes(network, metric=metric, cost_model=cost_model)
    return DeployedStack(
        network=network,
        topology=emulation.topology,
        binding=binding_result.binding,
        setup=SetupReport(emulation=emulation, binding=binding_result),
        cost_model=cost_model,
    )
