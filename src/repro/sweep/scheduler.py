"""The sharded multiprocess sweep scheduler.

:func:`run_sweep` expands a :class:`~repro.sweep.spec.SweepSpec`, filters
out runs already completed in the sink (resume), and executes the rest:

* ``workers <= 1`` — serially, in-process.  This is the reference path:
  identical records modulo ``shard`` / ``elapsed_s`` / ``wall_s`` fields.
* ``workers >= 2`` — runs are dealt round-robin onto ``workers`` shards,
  each a ``multiprocessing.Process`` streaming results back over a queue;
  the parent is the sole JSONL writer.  Audit duplicates are pinned to a
  different shard than their primary so the fingerprint audit genuinely
  crosses a process boundary.

Failure containment, in increasing severity:

* a workload **exception** is caught inside the worker and comes back as a
  ``status="failed"`` record (see :mod:`repro.sweep.worker`);
* a **hung** run (no result within ``timeout_s`` of its ``begin``) gets its
  shard terminated; the run is retried up to ``retries`` times on a fresh
  process, then recorded as a timeout failure;
* a **crashed** worker (hard exit, OOM kill, segfault) is detected by
  process death with runs still assigned; the in-flight run is retried or
  failed the same way and a fresh process takes over the remainder;
* a shard that keeps dying (``> max_respawns`` respawns) has its remaining
  runs recorded as structured failures — graceful degradation, never a
  hang and never a lost sweep.

Every run, successful or not, ends as exactly one record in the returned
list; ``len(records) == len(spec.expand())`` always holds.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from collections import deque
from queue import Empty
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from .sink import append_record, completed_ok_ids, load_records
from .spec import RunSpec, SweepSpec
from .worker import execute_run, failure_record, shard_main


@dataclass
class ShardStatus:
    """Live per-shard progress counters (what the CLI renders)."""

    shard: int
    assigned: int = 0
    done: int = 0
    failed: int = 0
    retried: int = 0
    respawns: int = 0


@dataclass
class SweepProgress:
    """One progress snapshot handed to the ``progress`` callback."""

    elapsed_s: float
    total: int
    done: int
    failed: int
    retried: int
    events_per_s: float
    shards: List[ShardStatus] = field(default_factory=list)

    def render(self) -> str:
        """Single-line human rendering with per-shard breakdown."""
        parts = [
            f"[{self.elapsed_s:7.1f}s]",
            f"{self.done + self.failed}/{self.total} runs",
            f"({self.failed} failed, {self.retried} retried)",
            f"{self.events_per_s:,.0f} ev/s",
        ]
        if self.shards:
            shard_bits = " ".join(
                f"s{s.shard}:{s.done}/{s.assigned}" + (f"!{s.failed}" if s.failed else "")
                for s in self.shards
            )
            parts.append("| " + shard_bits)
        return " ".join(parts)


ProgressFn = Callable[[SweepProgress], None]


def print_progress(snapshot: SweepProgress) -> None:
    """Default progress sink: one line per tick on stdout."""
    print(snapshot.render(), flush=True)


class _Shard:
    """Parent-side bookkeeping for one worker process."""

    def __init__(self, shard_id: int, runs: List[RunSpec]):
        self.id = shard_id
        self.queue: Deque[Tuple[RunSpec, int]] = deque((r, 1) for r in runs)
        self.by_id: Dict[str, RunSpec] = {r.run_id: r for r in runs}
        self.proc: Optional[mp.process.BaseProcess] = None
        #: (run_id, attempt, parent-monotonic begin time) of the in-flight run.
        self.current: Optional[Tuple[str, int, float]] = None
        self.status = ShardStatus(shard=shard_id, assigned=len(runs))

    @property
    def active(self) -> bool:
        return self.proc is not None or bool(self.queue)

    def mark_resolved(self, run_id: str) -> None:
        """Drop ``run_id`` from the pending queue (result or failure recorded)."""
        self.queue = deque((r, a) for r, a in self.queue if r.run_id != run_id)
        if self.current and self.current[0] == run_id:
            self.current = None


def _assign_shards(pending: List[RunSpec], workers: int) -> List[List[RunSpec]]:
    """Round-robin primaries; pin each audit duplicate to a different shard."""
    shards: List[List[RunSpec]] = [[] for _ in range(workers)]
    shard_of: Dict[str, int] = {}
    primaries = [r for r in pending if not r.audit]
    for i, run in enumerate(primaries):
        shard = i % workers
        shard_of[run.run_id] = shard
        shards[shard].append(run)
    for run in (r for r in pending if r.audit):
        shard = (shard_of.get(run.primary_id, run.point_index) + 1) % workers
        shards[shard].append(run)
    return shards


def run_sweep(
    spec: SweepSpec,
    out_path: Optional[str] = None,
    workers: int = 1,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    resume: bool = True,
    progress: Optional[ProgressFn] = None,
    progress_interval: float = 1.0,
    max_respawns: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Execute a sweep; returns one record per expanded run, sorted by id.

    ``out_path`` names the JSONL sink (omit for in-memory only); with
    ``resume`` (the default) runs already successful in that sink are
    skipped and their existing records returned.  ``timeout_s`` bounds one
    run's wall time in sharded mode; ``retries`` bounds re-dispatch of
    crashed or hung runs.
    """
    all_runs = spec.expand()
    spec_hash = spec.spec_hash()
    existing: List[Dict[str, Any]] = []
    if out_path and resume:
        prior = load_records(out_path)
        done_ids = completed_ok_ids(prior, spec_hash=spec_hash)
        seen: set = set()
        for record in prior:
            rid = record.get("run_id")
            if rid in done_ids and record.get("status") == "ok" and rid not in seen:
                seen.add(rid)
                existing.append(record)
    done_ids = {r["run_id"] for r in existing}
    pending = [r for r in all_runs if r.run_id not in done_ids]

    if workers <= 1:
        records = _run_serial(pending, out_path, progress, progress_interval)
    else:
        records = _run_sharded(
            pending,
            out_path,
            workers=workers,
            timeout_s=timeout_s,
            retries=retries,
            progress=progress,
            progress_interval=progress_interval,
            max_respawns=max_respawns,
        )
    return sorted(existing + records, key=lambda r: r["run_id"])


def _run_serial(
    pending: List[RunSpec],
    out_path: Optional[str],
    progress: Optional[ProgressFn],
    progress_interval: float,
) -> List[Dict[str, Any]]:
    """The in-process reference path (also the 1-core fallback)."""
    records: List[Dict[str, Any]] = []
    t0 = time.monotonic()
    last_tick = t0
    events = 0.0
    failed = 0
    for i, run in enumerate(pending):
        record = execute_run(run, attempt=1, shard=0)
        if out_path:
            append_record(out_path, record)
        records.append(record)
        events += record["metrics"].get("events_processed", 0.0)
        failed += record["status"] != "ok"
        now = time.monotonic()
        if progress and (now - last_tick >= progress_interval or i == len(pending) - 1):
            last_tick = now
            elapsed = max(now - t0, 1e-9)
            progress(
                SweepProgress(
                    elapsed_s=elapsed,
                    total=len(pending),
                    done=i + 1 - failed,
                    failed=failed,
                    retried=0,
                    events_per_s=events / elapsed,
                )
            )
    return records


def _run_sharded(
    pending: List[RunSpec],
    out_path: Optional[str],
    workers: int,
    timeout_s: Optional[float],
    retries: int,
    progress: Optional[ProgressFn],
    progress_interval: float,
    max_respawns: Optional[int],
) -> List[Dict[str, Any]]:
    """Dispatch ``pending`` across ``workers`` shard processes."""
    if max_respawns is None:
        max_respawns = 2 * retries + 4
    ctx = mp.get_context()
    queue: Any = ctx.Queue()
    shards = [_Shard(i, runs) for i, runs in enumerate(_assign_shards(pending, workers))]

    records: List[Dict[str, Any]] = []
    resolved: set = set()
    retried_total = 0
    events = 0.0
    t0 = time.monotonic()
    last_tick = t0

    def emit(record: Dict[str, Any], shard: _Shard) -> None:
        nonlocal events
        if record["run_id"] in resolved:
            return  # duplicate after a timeout race: first resolution wins
        resolved.add(record["run_id"])
        if out_path:
            append_record(out_path, record)
        records.append(record)
        events += record["metrics"].get("events_processed", 0.0)
        if record["status"] == "ok":
            shard.status.done += 1
        else:
            shard.status.failed += 1
        shard.mark_resolved(record["run_id"])

    def spawn(shard: _Shard) -> None:
        if not shard.queue:
            shard.proc = None
            return
        shard.proc = ctx.Process(
            target=shard_main,
            args=(shard.id, list(shard.queue), queue),
            daemon=True,
        )
        shard.proc.start()

    def interrupt(shard: _Shard, reason: str) -> None:
        """A shard died or was killed: retry or fail its in-flight run.

        The charged run is the one whose ``begin`` arrived without a
        ``done`` — or, when no begin was seen, the head of the shard's
        ordered queue: a hard crash (``os._exit``, OOM kill) can take the
        queue feeder thread down before the ``begin`` message flushes, so
        "no run in flight" does not mean "no run was executing".  Charging
        the head is safe either way (workers process their assignment in
        order) and is what makes repeated-crash runs converge to a
        structured failure instead of an infinite respawn loop.
        """
        nonlocal retried_total
        victim = shard.current
        shard.current = None
        if victim is not None and victim[0] in resolved:
            victim = None  # its "done" raced ahead of the kill
        if victim is None and shard.queue:
            head, head_attempt = shard.queue[0]
            victim = (head.run_id, head_attempt, 0.0)
        if victim is not None:
            run_id, attempt, _ = victim
            run = shard.by_id[run_id]
            if attempt <= retries:
                retried_total += 1
                shard.status.retried += 1
                remaining = deque((r, a) for r, a in shard.queue if r.run_id != run_id)
                remaining.appendleft((run, attempt + 1))
                shard.queue = remaining
            else:
                emit(failure_record(run, shard.id, attempt, error=reason), shard)
        shard.status.respawns += 1
        if shard.status.respawns > max_respawns:
            for stranded, att in list(shard.queue):
                emit(
                    failure_record(
                        stranded, shard.id, att,
                        error=f"shard {shard.id} abandoned after "
                        f"{shard.status.respawns} respawns (last: {reason})",
                    ),
                    shard,
                )
            shard.queue.clear()
            shard.proc = None
        else:
            spawn(shard)

    def kill(shard: _Shard, reason: str) -> None:
        proc = shard.proc
        if proc is not None:
            proc.terminate()
            proc.join(5.0)
            shard.proc = None
        _drain(0.2)  # results that raced the terminate still count
        interrupt(shard, reason)

    def _drain(timeout: float) -> None:
        """Pump queue messages for up to ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                wait = max(0.0, deadline - time.monotonic())
                kind, shard_id, payload = queue.get(timeout=wait) if wait else queue.get_nowait()
            except Empty:
                return
            shard = shards[shard_id]
            if kind == "begin":
                run_id, attempt = payload
                shard.current = (run_id, attempt, time.monotonic())
            elif kind == "done":
                if shard.current and shard.current[0] == payload["run_id"]:
                    shard.current = None
                emit(payload, shard)
            elif kind == "fin":
                shard.current = None

    for shard in shards:
        spawn(shard)

    try:
        while any(s.active for s in shards):
            _drain(0.1)
            now = time.monotonic()
            for shard in shards:
                proc = shard.proc
                if proc is None:
                    if shard.queue:  # abandoned spawn slot; shouldn't happen
                        interrupt(shard, "shard lost its process")
                    continue
                if (
                    timeout_s is not None
                    and shard.current is not None
                    and now - shard.current[2] > timeout_s
                ):
                    run_id, attempt, began = shard.current
                    kill(
                        shard,
                        f"run timed out after {now - began:.1f}s "
                        f"(limit {timeout_s}s, attempt {attempt})",
                    )
                elif not proc.is_alive():
                    exitcode = proc.exitcode
                    proc.join()
                    shard.proc = None
                    _drain(0.2)  # in-flight results written before the exit
                    if shard.queue:
                        interrupt(shard, f"worker crashed (exit code {exitcode})")
            if progress and time.monotonic() - last_tick >= progress_interval:
                last_tick = time.monotonic()
                elapsed = max(last_tick - t0, 1e-9)
                progress(
                    SweepProgress(
                        elapsed_s=elapsed,
                        total=len(pending),
                        done=sum(s.status.done for s in shards),
                        failed=sum(s.status.failed for s in shards),
                        retried=retried_total,
                        events_per_s=events / elapsed,
                        shards=[s.status for s in shards],
                    )
                )
    finally:
        for shard in shards:
            if shard.proc is not None and shard.proc.is_alive():
                shard.proc.terminate()
                shard.proc.join(5.0)
    if progress:
        elapsed = max(time.monotonic() - t0, 1e-9)
        progress(
            SweepProgress(
                elapsed_s=elapsed,
                total=len(pending),
                done=sum(s.status.done for s in shards),
                failed=sum(s.status.failed for s in shards),
                retried=retried_total,
                events_per_s=events / elapsed,
                shards=[s.status for s in shards],
            )
        )
    return records
