"""Discrete-event simulation engine.

A minimal, deterministic event-queue kernel: events are ``(time, seq)``
ordered callbacks, where the monotone sequence number makes simultaneous
events fire in scheduling order — runs are exactly reproducible for a
given seed, which every experiment in EXPERIMENTS.md relies on.

Hot-path design notes:

* :meth:`Simulator.schedule` takes ``(callback, *args)`` so callers on the
  packet path (the wireless medium, timers) never build a per-event lambda
  closure — the args tuple rides in the heap entry instead.
* Cancelled events are counted as they are cancelled and discounted as
  they are lazily popped, so :attr:`Simulator.pending` reports the number
  of *live* events in O(1) without scanning the heap.
* :meth:`Simulator.schedule_timer` is the handle-free cancellation path:
  instead of allocating an :class:`EventHandle` per timer, the caller owns
  a ``{key: stamp}`` registry and the event fires only if the registry
  still maps its key to its stamp at the deadline.  Re-arming or removing
  the key cancels the queued event for free; the stale heap entry is
  skipped on pop without advancing the clock, exactly like a cancelled
  :class:`EventHandle`.

The engine knows nothing about radios or nodes; ``repro.simulator.network``
builds the wireless medium on top and ``repro.simulator.process`` the
per-node reactive processes.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

#: Sentinel occupying the handle slot of heap entries scheduled via
#: :meth:`Simulator.schedule_timer`.  An identity check against it is the
#: only per-event cost the timer path adds to the hot loop.
_TIMER = object()


class Simulator:
    """The event loop.

    Use :meth:`schedule` (relative delay) or :meth:`schedule_at` (absolute
    time) to enqueue callbacks, then :meth:`run` to drain the queue.
    """

    def __init__(self) -> None:
        self._queue: List[
            Tuple[float, int, "EventHandle", Callable[..., None], Tuple[Any, ...]]
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

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> "EventHandle":
        """Enqueue ``callback(*args)`` to fire ``delay`` time units from now.

        Passing positional ``args`` here instead of closing over them keeps
        the per-packet path allocation-free of lambdas.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        # inlined push (not delegated to schedule_at): this is the hottest
        # call in the simulator and the *args repack through a second frame
        # costs ~15% of raw event throughput
        time = self._now + delay
        handle = EventHandle(time, self)
        heapq.heappush(self._queue, (time, next(self._seq), handle, callback, args))
        return handle

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> "EventHandle":
        """Enqueue ``callback(*args)`` at absolute ``time`` (>= now)."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule in the past (now={self._now}, time={time})"
            )
        handle = EventHandle(time, self)
        heapq.heappush(self._queue, (time, next(self._seq), handle, callback, args))
        return handle

    def schedule_fire_and_forget(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Like :meth:`schedule` but returns no :class:`EventHandle`.

        The event cannot be cancelled; in exchange the per-event handle
        allocation disappears.  This is the packet-delivery hot path.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        heapq.heappush(
            self._queue, (self._now + delay, next(self._seq), None, callback, args)
        )

    def schedule_timer(
        self,
        delay: float,
        armed: Dict[Hashable, int],
        key: Hashable,
        stamp: int,
        callback: Callable[[Any], None],
        tag: Any,
    ) -> None:
        """Enqueue ``callback(tag)`` after ``delay``, cancellable without a
        per-event :class:`EventHandle`.

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
        when the queue drains early.
        """
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        if until is not None and until < self._now:
            raise ValueError(
                f"cannot run backward (now={self._now}, until={until})"
            )
        self._running = True
        fired = 0
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue:
                time, _, handle, callback, args = queue[0]
                if until is not None and time > until:
                    self._now = until
                    break
                heappop(queue)
                if handle is not None:
                    if handle is _TIMER:
                        armed, key, stamp, tag = args
                        if armed.get(key) != stamp:
                            # re-armed or cancelled: skip without touching
                            # the clock, like a cancelled EventHandle
                            self._cancelled_pending -= 1
                            continue
                        del armed[key]  # mark fired: re-arm inside works
                        self._now = time
                        callback(tag)
                        fired += 1
                        if max_events is not None and fired >= max_events:
                            break
                        continue
                    if handle.cancelled:
                        self._cancelled_pending -= 1
                        continue
                    handle.sim = None  # mark fired: a late cancel() is a no-op
                self._now = time
                if args:
                    callback(*args)
                else:
                    callback()
                fired += 1
                if max_events is not None and fired >= max_events:
                    break
            else:
                # queue drained before `until`: the clock still owes the
                # caller the full interval
                if until is not None:
                    self._now = until
        finally:
            self._running = False
            self._events_processed += fired
        return self._now

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

    def run_until_lookahead(
        self, horizon: float, max_events: Optional[int] = None
    ) -> int:
        """Drain events with ``time <= horizon``; returns the number fired.

        The partitioned simulator's window drain (DESIGN.md §12).  Unlike
        :meth:`run`, the clock is **not** advanced to ``horizon`` when the
        queue runs dry — it stays at the last fired event, so (a) the
        merged run's latency is the true last-event time, and (b) events
        injected by a neighbouring shard at any time in ``(now, horizon]``
        remain schedulable between windows.  Repeated calls with a
        monotone ``horizon`` sequence process exactly the events a single
        :meth:`run` would, in the same order.
        """
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        if horizon < self._now:
            raise ValueError(
                f"cannot run backward (now={self._now}, horizon={horizon})"
            )
        self._running = True
        fired = 0
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue:
                time, _, handle, callback, args = queue[0]
                if time > horizon:
                    break
                heappop(queue)
                if handle is not None:
                    if handle is _TIMER:
                        armed, key, stamp, tag = args
                        if armed.get(key) != stamp:
                            self._cancelled_pending -= 1
                            continue
                        del armed[key]
                        self._now = time
                        callback(tag)
                        fired += 1
                        if max_events is not None and fired >= max_events:
                            break
                        continue
                    if handle.cancelled:
                        self._cancelled_pending -= 1
                        continue
                    handle.sim = None
                self._now = time
                if args:
                    callback(*args)
                else:
                    callback()
                fired += 1
                if max_events is not None and fired >= max_events:
                    break
        finally:
            self._running = False
            self._events_processed += fired
        return fired

    def inject_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Externally-fed event injection at absolute ``time`` (>= now).

        The cross-shard delivery path of the partitioned simulator: a
        boundary packet handed over at a window barrier is scheduled here
        at its exact arrival time.  ``time == now`` is allowed (an arrival
        landing exactly on a window edge fires at the correct virtual time
        in the next window); like the fire-and-forget path, no handle is
        allocated and the event cannot be cancelled.
        """
        if time < self._now:
            raise ValueError(
                f"cannot inject in the past (now={self._now}, time={time})"
            )
        heapq.heappush(self._queue, (time, next(self._seq), None, callback, args))

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


class EventHandle:
    """Cancellable reference to a scheduled event (timers use this)."""

    __slots__ = ("time", "cancelled", "sim")

    def __init__(self, time: float, sim: Optional[Simulator] = None):
        self.time = time
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (no effect if already fired)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.sim is not None:
            # still queued: keep the simulator's live-event count accurate
            self.sim._cancelled_pending += 1
            self.sim = None

    # Handles participate in heap tuples; order ties deterministically by id.
    def __lt__(self, other: "EventHandle") -> bool:
        return id(self) < id(other)
