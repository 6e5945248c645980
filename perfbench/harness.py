"""The measuring loop, the host-speed probe, and metric assembly.

A run is a sequence of *cycles*.  Each cycle rebuilds the workload's world
from the seed (one ``setup_s`` sample, so set-up is sampled at points
spread across the run) and then runs the world's fixed cycle of ops in a
closed loop: the next op starts only after the previous one returned.
Cycles repeat until ``seconds`` have passed and at least ``MIN_CYCLES``
ran.  Every cycle replays the same ops from the same seed, so the digest
of each cycle must equal the first one's; a mismatch marks the run
incorrect.

Right after every op, and after every set-up, a fixed pure-Python probe
is timed.  On a shared 2-core Xeon VM, speed drifts by up to 2x in phases
lasting minutes (a storm round measured 25 ms in one stretch and 50 ms in
another, the probe 1.8 ms and 3.5 ms), and the probe drifts with it.  So every gated
time is *host-normalized*: scaled by ``REFERENCE_PROBE_MS`` over the
probe time measured beside it, i.e. expressed in the time the reference
host takes at probe speed ``REFERENCE_PROBE_MS``.  ``op_cost_p50`` is the
bare ratio.  Raw times are reported in the detail record of every run.
The probe runs with the collector paused, so a change that grows the
program's heap cannot slow the probe and flatter its own ratio.

With tracing on, odd cycles run traced and even cycles untraced; the
per-layer metrics come from the traced cycles and ``trace.overhead``
compares the two.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import os
import platform
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS, OpResult

#: the seed reserved for confirming a claimed gain; never tune on it
HELD_OUT_SEED = 90210
MIN_CYCLES = 3
SPAN_LIMIT = 50_000
PROBE_ITERATIONS = 3000
#: probe time of the reference host (2-core Xeon VM, fast phase), in ms
REFERENCE_PROBE_MS = 2.0
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_cost_p50": "probe",
    "deliveries_per_s": "1/s",
    "queries_per_s": "1/s",
    "energy_per_op": "energy",
    "virtual_latency_p50": "vtime",
    "peak_rss_mb": "MB",
}


class _Churn:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def probe() -> float:
    """Time a fixed heap/dict/object churn of a few ms (seconds)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        heap: List[int] = []
        table: Dict[int, _Churn] = {}
        for i in range(PROBE_ITERATIONS):
            key = (i * 7919) % 4099
            heapq.heappush(heap, key)
            table[key & 1023] = _Churn(key, i)
        while heap:
            heapq.heappop(heap)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def machine() -> Dict[str, Any]:
    """Where the numbers were taken."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def _digest(obj: Any) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _tail(values: List[float]) -> Dict[str, Any]:
    """The highest of p90/p95/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for pct in (90.0, 95.0, 99.0, 99.9):
        beyond = n - int(n * pct / 100.0)
        if beyond >= 10:
            best = {"percentile": pct, "value": ordered[int(n * pct / 100.0)],
                    "beyond": beyond, "samples": n}
    return best or {"percentile": None, "samples": n}


@dataclass
class _Sample:
    """One op: its wall time, the probe after it, and (traced) its layers."""

    op_s: float
    probe_s: float
    result: OpResult
    traced: bool
    layer_s: Optional[Dict[str, float]] = None
    calls: Optional[Dict[str, int]] = None
    counts: Optional[Dict[str, float]] = None

    @property
    def norm_s(self) -> float:
        """Op time at the reference host's probe speed."""
        return self.op_s * REFERENCE_PROBE_MS / (self.probe_s * 1e3)


def _instrument(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (see README.md for the list)."""
    import repro.core.synthesis as synthesis
    import repro.deployment as deployment
    import repro.runtime.binding as binding
    import repro.runtime.topology_emulation as emulation
    import repro.runtime.wire as wire
    from repro.core import NodeProgram
    from repro.runtime import TransportProcess
    from repro.serve import AdmissionController, QueryEngine
    from repro.simulator import ProcessHost, Simulator, WirelessMedium

    def count_bytes(args: Any, frame: bytes) -> None:
        tracer.counts["runtime.wire.bytes"] += len(frame)

    for fn in (deployment.uniform_random, deployment.ensure_coverage, deployment.build_network):
        tracer.patch_function(fn, "deployment")
    tracer.patch_function(emulation.emulate_topology, "runtime.topology_emulation")
    tracer.patch_function(binding.bind_processes, "runtime.binding")
    tracer.patch_function(synthesis.synthesize_quadtree_program, "core.synthesis")
    tracer.patch_method(Simulator, "run", "simulator.engine")
    for attr in ("broadcast", "unicast"):
        tracer.patch_method(WirelessMedium, attr, "simulator.network")
    for attr in ("add", "start"):
        tracer.patch_method(ProcessHost, attr, "simulator.process")
    for attr in ("on_packet", "on_timer"):
        tracer.patch_method(TransportProcess, attr, "runtime.routing")
    for fn in (wire.encode_envelope, wire.encode_ack):
        tracer.patch_function(fn, "runtime.wire", after=count_bytes)
    for fn in (wire.decode_envelope, wire.decode_ack):
        tracer.patch_function(fn, "runtime.wire")
    for attr in ("start", "deliver"):
        tracer.patch_method(NodeProgram, attr, "core.program")
    tracer.patch_method(AdmissionController, "admit_round", "serve.admission")
    tracer.patch_method(QueryEngine, "run_batch", "serve.engine")
    tracer.install_gc()


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    world_kwargs: Optional[Dict[str, Any]] = None,
    min_cycles: int = MIN_CYCLES,
    span_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one workload; returns the result object plus a detail record."""
    cls = WORKLOADS[name]
    kwargs = dict(world_kwargs or {})
    tracer = Tracer(SPAN_LIMIT, scope=("repro", "workloads")) if trace else None
    samples: List[_Sample] = []
    setups: List[Tuple[float, float]] = []  # (set-up s, probe s beside it)
    traced_setups: List[Dict[str, float]] = []
    setup_counts: Dict[str, float] = {}
    errors: List[str] = []
    attempted = failed = 0
    replay_ok = True
    first_cycle: List[OpResult] = []
    reference: Optional[str] = None
    op_id = 0
    cycle = 0
    began = perf_counter()
    while cycle < min_cycles or perf_counter() - began < seconds:
        traced = tracer is not None and cycle % 2 == 1
        if traced:
            _instrument(tracer)
        gc.collect()  # the previous world's garbage is not this set-up's cost
        incl0 = dict(tracer.incl_s) if traced else None
        start = perf_counter()
        if traced:
            tracer.enter("bench:setup")
        world = cls(seed, **kwargs)
        if traced:
            tracer.exit()
        setup_s = perf_counter() - start
        setups.append((setup_s, statistics.median(probe() for _ in range(SETUP_PROBES))))
        if traced:
            traced_setups.append(
                {k: v - incl0.get(k, 0.0) for k, v in tracer.incl_s.items()}
            )
        setup_counts = world.setup_counts()
        digests: List[Any] = []
        cycle_failed = False
        for i in range(world.cycle_ops):
            snap = world.before(i)
            if traced:
                tracer.op = op_id
                before = tracer.snapshot()
            attempted += 1
            start = perf_counter()
            if traced:
                tracer.enter("bench:op")
            try:
                raw = world.op(i)
            except Exception as exc:  # a raising op is a failed op, not a crash
                errors.append(f"cycle {cycle} op {i}: {type(exc).__name__}: {exc}")
                failed += 1
                cycle_failed = True
                break
            finally:
                if traced:
                    tracer.exit()
            op_s = perf_counter() - start
            layers = tracer.since(before) if traced else (None, None, None)
            sample = _Sample(op_s, probe(), world.observe(i, snap, raw), traced, *layers)
            error = cls.check(sample.result)
            if error is not None:
                failed += 1
                errors.append(f"cycle {cycle} op {i}: {error}")
            samples.append(sample)
            result = sample.result
            digests.append(result.digest)
            if cycle == 0:
                first_cycle.append(result)
            op_id += 1
        if traced:
            tracer.uninstall()
        if not cycle_failed:
            cycle_digest = _digest((world.digest(), digests))
            if reference is None:
                reference = cycle_digest
            elif cycle_digest != reference:
                replay_ok = False
                errors.append(f"cycle {cycle} replayed differently from cycle 0")
        world = None
        cycle += 1

    untraced = [s for s in samples if not s.traced]
    detail = {
        "workload": name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "cycles": cycle,
        "setups": len(setups),
        "host.probe_ms": _median([s.probe_s * 1e3 for s in samples]),
        "raw": {
            "setup_s": statistics.median(s for s, _ in setups),
            "op_ms_p50": _median([s.op_s * 1e3 for s in untraced]),
        },
        "op_ms_tail": _tail([s.norm_s * 1e3 for s in untraced]),
        "digest": reference,
        "counts": _count_totals(first_cycle),
        "machine": machine(),
        "errors": errors[:5],
    }
    if tracer is not None and span_path is not None:
        tracer.write_spans(span_path)
    units = PER_LAYER_UNITS if tracer is not None else END_TO_END_UNITS
    if not first_cycle or (tracer is not None and not any(s.traced for s in samples)):
        metrics = {name: 0.0 for name in units}  # ops failed: nothing to measure
    elif tracer is not None:
        metrics = _per_layer(samples, traced_setups, setup_counts)
    else:
        metrics = _end_to_end(samples, setups, first_cycle)
    return {
        "correct": failed == 0 and replay_ok and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }


def _count_totals(results: List[OpResult]) -> Dict[str, float]:
    """Deterministic counters summed over one cycle (the simulated-stats digest)."""
    totals: Dict[str, float] = {}
    for result in results:
        for key, value in result.counts.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _end_to_end(
    samples: List[_Sample], setups: List[Tuple[float, float]], first_cycle: List[OpResult]
) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(
            s * REFERENCE_PROBE_MS / (p * 1e3) for s, p in setups
        ),
        "op_ms_p50": _median([s.norm_s * 1e3 for s in samples]),
        "op_cost_p50": _median([s.op_s / s.probe_s for s in samples]),
        "deliveries_per_s": _median([s.result.deliveries / s.norm_s for s in samples]),
        "queries_per_s": _median([s.result.queries / s.norm_s for s in samples]),
        "energy_per_op": statistics.fmean(r.energy for r in first_cycle),
        "virtual_latency_p50": _median([x for r in first_cycle for x in r.latencies]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


#: per-layer metric -> unit; printed for every workload (0 where unused)
PER_LAYER_UNITS = {
    "deployment.build_s": "s",
    "runtime.topology_emulation.emulate_s": "s",
    "runtime.topology_emulation.setup_messages": "count",
    "runtime.binding.bind_s": "s",
    "runtime.binding.setup_messages": "count",
    "core.synthesis.synthesize_s": "s",
    "simulator.engine.self_ms": "ms",
    "simulator.engine.events": "count",
    "simulator.engine.us_per_event": "us",
    "simulator.network.self_ms": "ms",
    "simulator.network.transmissions": "count",
    "simulator.network.deliveries": "count",
    "simulator.network.drops": "count",
    "simulator.network.delivery_ratio": "ratio",
    "simulator.process.build_ms": "ms",
    "simulator.process.processes_built": "count",
    "runtime.routing.self_ms": "ms",
    "runtime.routing.forwarded": "count",
    "runtime.routing.retransmissions": "count",
    "runtime.routing.duplicates_suppressed": "count",
    "runtime.routing.useful_ratio": "ratio",
    "runtime.wire.self_ms": "ms",
    "runtime.wire.frames": "count",
    "runtime.wire.bytes": "bytes",
    "core.program.self_ms": "ms",
    "core.program.firings": "count",
    "serve.admission.self_ms": "ms",
    "serve.admission.admitted": "count",
    "serve.admission.deferred": "count",
    "serve.admission.shed": "count",
    "serve.engine.self_ms": "ms",
    "serve.engine.cache_hits": "count",
    "serve.engine.cache_misses": "count",
    "serve.engine.hit_rate": "ratio",
    "serve.engine.responses": "count",
    "serve.engine.retries": "count",
    "serve.engine.writes": "count",
    "python.gc.pause_ms": "ms",
    "python.gc.collections": "count",
    "bench.unattributed_ms": "ms",
    "trace.overhead": "ratio",
    "trace.self_sum_ratio": "ratio",
    "host.probe_ms": "ms",
}


def _per_layer(
    samples: List[_Sample],
    setups: List[Dict[str, float]],
    setup_counts: Dict[str, float],
) -> Dict[str, float]:
    traced = [s for s in samples if s.traced]
    untraced = [s for s in samples if not s.traced]
    n = len(traced)

    def per_op_ms(layer: str) -> float:
        return sum(s.layer_s.get(layer, 0.0) for s in traced) * 1e3 / n

    def mean_count(key: str) -> float:
        return statistics.fmean(s.result.counts.get(key, 0) for s in samples)

    def total(key: str) -> float:
        return float(sum(s.result.counts.get(key, 0) for s in samples))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def setup_s(prefix: str) -> float:
        return _median(
            [sum(v for k, v in st.items() if k.startswith(prefix)) for st in setups]
        )

    wire_frames = sum(
        v for s in traced for k, v in s.calls.items() if k.startswith("runtime.wire:encode")
    )
    engine_s = sum(s.layer_s.get("simulator.engine", 0.0) for s in traced)
    events = sum(s.result.counts.get("events", 0) for s in traced)
    hits, misses = total("cache_hits"), total("cache_misses")
    deliveries, drops = total("deliveries"), total("drops")
    return {
        "deployment.build_s": setup_s("deployment:"),
        "runtime.topology_emulation.emulate_s": setup_s("runtime.topology_emulation:"),
        "runtime.topology_emulation.setup_messages": float(
            setup_counts.get("emulation_messages", 0)
        ),
        "runtime.binding.bind_s": setup_s("runtime.binding:"),
        "runtime.binding.setup_messages": float(setup_counts.get("binding_messages", 0)),
        "core.synthesis.synthesize_s": setup_s("core.synthesis:"),
        "simulator.engine.self_ms": per_op_ms("simulator.engine"),
        "simulator.engine.events": mean_count("events"),
        "simulator.engine.us_per_event": ratio(engine_s * 1e6, events),
        "simulator.network.self_ms": per_op_ms("simulator.network"),
        "simulator.network.transmissions": mean_count("transmissions"),
        "simulator.network.deliveries": mean_count("deliveries"),
        "simulator.network.drops": mean_count("drops"),
        "simulator.network.delivery_ratio": ratio(deliveries, deliveries + drops),
        "simulator.process.build_ms": per_op_ms("simulator.process"),
        "simulator.process.processes_built": mean_count("processes_built"),
        "runtime.routing.self_ms": per_op_ms("runtime.routing"),
        "runtime.routing.forwarded": mean_count("forwarded"),
        "runtime.routing.retransmissions": mean_count("retransmissions"),
        "runtime.routing.duplicates_suppressed": mean_count("duplicates_suppressed"),
        "runtime.routing.useful_ratio": ratio(
            total("delivered_envelopes"), total("transmissions")
        ),
        "runtime.wire.self_ms": per_op_ms("runtime.wire"),
        "runtime.wire.frames": wire_frames / n,
        "runtime.wire.bytes": sum(
            s.counts.get("runtime.wire.bytes", 0) for s in traced
        ) / n,
        "core.program.self_ms": per_op_ms("core.program"),
        "core.program.firings": mean_count("firings"),
        "serve.admission.self_ms": per_op_ms("serve.admission"),
        "serve.admission.admitted": mean_count("admitted"),
        "serve.admission.deferred": mean_count("deferred"),
        "serve.admission.shed": mean_count("shed"),
        "serve.engine.self_ms": per_op_ms("serve.engine"),
        "serve.engine.cache_hits": mean_count("cache_hits"),
        "serve.engine.cache_misses": mean_count("cache_misses"),
        "serve.engine.hit_rate": ratio(hits, hits + misses),
        "serve.engine.responses": mean_count("responses"),
        "serve.engine.retries": mean_count("retries"),
        "serve.engine.writes": mean_count("writes"),
        "python.gc.pause_ms": per_op_ms("python.gc"),
        "python.gc.collections": sum(s.calls.get("python.gc:collect", 0) for s in traced) / n,
        "bench.unattributed_ms": per_op_ms("bench"),
        "trace.overhead": ratio(
            _median([s.op_s for s in traced]), _median([s.op_s for s in untraced])
        ),
        "trace.self_sum_ratio": _median(
            [sum(s.layer_s.values()) / s.op_s for s in traced]
        ),
        "host.probe_ms": _median([s.probe_s * 1e3 for s in samples]),
    }
