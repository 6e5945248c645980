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
from ..scenario import LinkModel, link_model_from_dict
from ..simulator.engine import Simulator
from ..simulator.network import WirelessMedium
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


class _AppProcess(TransportProcess):
    """Transport engine plus (on leaders) the synthesized rule program.

    A :class:`DeployedStack` keeps one per node and re-arms it before each
    round; the constructor takes the same arguments as :meth:`arm`, whose
    ``transport`` keywords go to :meth:`TransportProcess.arm`.
    """

    __slots__ = ("program", "result_sink", "counters", "spec")

    def arm(
        self,
        topology: EmulatedTopology,
        binding: Binding,
        program: Optional[NodeProgram],
        result_sink: Dict[GridCoord, Any],
        counters: Dict[str, int],
        spec: Optional[SynthesizedProgram] = None,
        **transport: Any,
    ) -> None:
        super().arm(topology, binding, **transport)
        self.program = program
        self.result_sink = result_sink
        self.counters = counters
        self.spec = spec

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
    studies can loop rounds until death).  The stack builds each node's
    process on its first round and re-arms it for every later one.
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
        program of its virtual coordinate; all nodes forward.  With
        ``reliable`` the transport uses hop-by-hop acknowledgements and
        up to ``max_retries`` retransmissions per hop (seeded exponential
        backoff between attempts), making rounds robust to ``loss_rate``
        at the cost of ack traffic.
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
        a frame is heard.  The result's ``link_faded`` counts the frames
        it faded and folds into the fingerprint;
        :class:`~repro.scenario.UnitDisk` builds no gate, which keeps the
        round byte-identical to passing None.
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
        report = (
            FaultReport() if (fault_plan is not None or healing is not None) else None
        )
        sim, medium, host = self.make_harness(loss_rate=loss_rate, rng=rng)
        gate = None if link_model is None else link_model.build_gate(self.network)
        medium.link_gate = gate
        results: Dict[GridCoord, Any] = {}
        counters = {"delivered": 0, "dropped": 0, "orphaned": 0}
        config = dict(
            spec=spec,
            reliable=reliable,
            max_retries=max_retries,
            wire_format=wire_format,
            healing=healing,
            fault_report=report,
        )
        processes = self._processes
        for nid in self.network.alive_ids():
            cell = self.network.cell_of(nid)
            program = (
                spec.program_for(cell)
                if self.binding.leaders.get(cell) == nid
                else None
            )
            args = (self.topology, self.binding, program, results, counters)
            proc = processes.get(nid)
            if proc is None:
                proc = processes[nid] = _AppProcess(*args, **config)
            else:
                proc.arm(*args, **config)
            host.add(nid, proc)
        host.start()
        if fault_plan:
            injector = FaultInjector(fault_plan, self.network, self.binding, report)
            injector.arm(sim, medium)
        try:
            sim.run(max_events=max_events)
        finally:
            host.teardown()
            # a corrupting fault plan's transform is the injector's bound
            # method, and the injector holds the medium: break that cycle too
            medium.tx_transform = None
        if report is not None:
            report.orphaned_deliveries = counters["orphaned"]
        return DeployedRunResult(
            exfiltrated=results,
            ledger=medium.ledger,
            latency=sim.now,
            transmissions=medium.stats.transmissions,
            drops=counters["dropped"],
            delivered_envelopes=counters["delivered"],
            events_processed=sim.events_processed,
            rejected_frames=sum(p.rejected_frames for p in host.processes.values()),
            fault_report=report,
            link_faded=None if gate is None else gate.faded,
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
