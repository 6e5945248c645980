"""Discrete-event simulation engine.

A minimal, deterministic event-queue kernel: events are ``(time, seq)``
ordered callbacks, where the monotone sequence number makes simultaneous
events fire in scheduling order — runs are exactly reproducible for a
given seed, which every experiment in EXPERIMENTS.md relies on.

One mechanism per job:

* **Scheduling.**  :meth:`Simulator.schedule` (relative delay) and
  :meth:`Simulator.schedule_at` (absolute time) enqueue
  ``callback(*args)``.  The args tuple rides in the heap entry, so callers
  on the packet path (the wireless medium, timers) never build a per-event
  lambda closure, and nothing is returned: a plain event cannot be
  cancelled.
* **Cancellation.**  :meth:`Simulator.schedule_timer` is the only
  cancellable event.  The caller owns a ``{key: stamp}`` registry and the
  event fires only if the registry still maps its key to its stamp at the
  deadline; re-arming or removing the key cancels the queued event for
  free.  The stale heap entry is skipped on pop without advancing the
  clock, and :meth:`Simulator.discount_cancelled` keeps
  :attr:`Simulator.pending` an exact live-event count in O(1).
* **Draining.**  :meth:`Simulator.run` and
  :meth:`Simulator.run_until_lookahead` share one drain loop; they differ
  only in where they leave the clock when the queue runs dry.

The engine knows nothing about radios or nodes; ``repro.simulator.network``
builds the wireless medium on top and ``repro.simulator.process`` the
per-node reactive processes.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

#: Marks the heap entries of :meth:`Simulator.schedule_timer`; a plain
#: event carries None in that slot.  The drain loop's one identity check
#: against None is all the timer path adds to a plain event.
_TIMER = object()


class Simulator:
    """The event loop.

    Use :meth:`schedule` (relative delay) or :meth:`schedule_at` (absolute
    time) to enqueue callbacks, then :meth:`run` to drain the queue.
    """

    def __init__(self) -> None:
        self._queue: List[
            Tuple[float, int, Optional[object], Callable[..., None], Tuple[Any, ...]]
        ] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._cancelled_pending = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of *live* events still queued (cancelled ones excluded)."""
        return len(self._queue) - self._cancelled_pending

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Enqueue ``callback(*args)`` to fire ``delay`` time units from now.

        Passing positional ``args`` here instead of closing over them keeps
        the per-packet path allocation-free of lambdas.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        # inlined push (not delegated to schedule_at): this is the hottest
        # call in the simulator and the *args repack through a second frame
        # costs ~15% of raw event throughput
        heapq.heappush(
            self._queue, (self._now + delay, next(self._seq), None, callback, args)
        )

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Enqueue ``callback(*args)`` at absolute ``time`` (>= now).

        ``time == now`` is allowed: the partitioned simulator injects a
        boundary arrival landing exactly on a window edge this way.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule in the past (now={self._now}, time={time})"
            )
        heapq.heappush(self._queue, (time, next(self._seq), None, callback, args))

    def schedule_timer(
        self,
        delay: float,
        armed: Dict[Hashable, int],
        key: Hashable,
        stamp: int,
        callback: Callable[[Any], None],
        tag: Any,
    ) -> None:
        """Enqueue ``callback(tag)`` after ``delay``, cancellable through
        the caller's registry.

        The caller owns ``armed``: the event fires iff ``armed[key] ==
        stamp`` at its deadline (the engine removes the entry just before
        firing, so a re-arm from inside the callback works).  Replacing or
        deleting the entry cancels the queued event; the caller must report
        such cancellations through :meth:`discount_cancelled` to keep
        :attr:`pending` exact.  ``stamp`` values must never be reused for
        the same registry key while a stale event may still be queued —
        give each registry a monotone stamp counter.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        heapq.heappush(
            self._queue,
            (
                self._now + delay,
                next(self._seq),
                _TIMER,
                callback,
                (armed, key, stamp, tag),
            ),
        )

    def discount_cancelled(self, count: int = 1) -> None:
        """Report ``count`` still-queued events as logically cancelled.

        Used by owners of :meth:`schedule_timer` registries when they
        remove or supersede an armed entry; keeps :attr:`pending` an exact
        live-event count (the stale heap entries are dropped lazily).
        """
        self._cancelled_pending += count

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Process events in order until the queue drains, ``until`` is
        reached, or ``max_events`` have fired.  Returns the final time.

        ``until`` must not lie in the past: repeated ``run(until=t)`` calls
        form a monotone timeline, and the clock advances to ``until`` even
        when the queue drains early.  A run that ``max_events`` stops
        before a live event due by ``until`` leaves the clock at the last
        fired event (a budget of 0 fires nothing); one that fired its
        whole budget and left nothing due still advances to ``until``.
        """
        self._drain(until, max_events)
        queue = self._queue
        # the drain stops at a live event it may not fire, so an event due
        # by `until` is still queued only when the budget stopped the run
        if until is not None and not (queue and queue[0][0] <= until):
            # the clock still owes the caller the full interval
            self._now = until
        return self._now

    def run_until_lookahead(
        self, horizon: float, max_events: Optional[int] = None
    ) -> int:
        """Drain events with ``time <= horizon``; returns the number fired.

        The partitioned simulator's window drain (DESIGN.md §12).  Unlike
        :meth:`run`, the clock is **not** advanced to ``horizon`` when the
        queue runs dry — it stays at the last fired event, so (a) the
        merged run's latency is the true last-event time, and (b) events
        a neighbouring shard hands over at any time in ``(now, horizon]``
        remain schedulable between windows.  Repeated calls with a
        monotone ``horizon`` sequence process exactly the events a single
        :meth:`run` would, in the same order.
        """
        return self._drain(horizon, max_events)

    def _drain(self, until: Optional[float], max_events: Optional[int]) -> int:
        """The drain loop: fire events with ``time <= until`` (all of them
        when ``until`` is None) in ``(time, seq)`` order, stopping at the
        first live event past ``max_events`` fired, which stays queued.
        Returns the number fired."""
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        if until is not None and until < self._now:
            raise ValueError(
                f"cannot run backward (now={self._now}, until={until})"
            )
        if max_events is not None and max_events < 0:
            raise ValueError(f"max_events must be non-negative, got {max_events}")
        budget = -1 if max_events is None else max_events
        self._running = True
        fired = 0
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue:
                time, _, timer, callback, args = queue[0]
                if until is not None and time > until:
                    break
                if timer is not None:
                    armed, key, stamp, tag = args
                    if armed.get(key) != stamp:
                        # re-armed or cancelled: skip without touching
                        # the clock
                        heappop(queue)
                        self._cancelled_pending -= 1
                        continue
                    if fired == budget:
                        break
                    heappop(queue)
                    del armed[key]  # mark fired: re-arm inside works
                    self._now = time
                    callback(tag)
                else:
                    if fired == budget:
                        break
                    heappop(queue)
                    self._now = time
                    if args:
                        callback(*args)
                    else:
                        callback()
                fired += 1
        finally:
            self._running = False
            self._events_processed += fired
        return fired

    def clear(self) -> None:
        """Drop every queued event, live or cancelled (the run is over).

        The clock and :attr:`events_processed` keep their values.
        """
        if self._running:
            raise RuntimeError("cannot clear a running simulator")
        self._queue.clear()
        self._cancelled_pending = 0

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest queued heap entry (None if empty).

        Cancelled/stale entries are *included*, so the value is a lower
        bound on the next live event's time — exactly what a conservative
        lookahead scheduler needs: under-estimating only costs an extra
        (empty) synchronization window, never a causality violation.
        """
        return self._queue[0][0] if self._queue else None

    def run_until_quiet(self, max_events: int = 10_000_000) -> float:
        """Drain every event; raise if the budget is exceeded (an
        accidental livelock in a protocol under test)."""
        start = self._events_processed
        self.run(max_events=max_events)
        if self.pending:
            raise RuntimeError(
                f"simulation did not quiesce within {max_events} events "
                f"({self._events_processed - start} fired)"
            )
        return self._now
