"""In-memory span tracer that instruments layer entry points from outside.

The program under test carries no tracing of its own: :class:`Tracer`
replaces the public entry points of each layer (module functions and
class methods of ``repro``) with thin wrappers that open a span on entry
and close it on exit, and restores the originals on :meth:`uninstall`.
Garbage-collector pauses become spans too, through ``gc.callbacks``.

A span's *self* time is its duration minus the time its child spans
cover, so the self times of every span opened inside an op add back to
the op's own span.  Span names are ``<layer>:<function>``; the layer is
the part before the colon.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span id, name, start s, end s, parent span id or None, op id or None)
Span = Tuple[int, str, float, float, Optional[int], Optional[int]]


def layer_of(name: str) -> str:
    """The layer a span name belongs to."""
    return name.split(":", 1)[0]


class Tracer:
    """Span stack plus per-name self/inclusive totals.

    ``span_limit`` caps how many spans are kept for :meth:`write_spans`;
    the totals keep counting past it, so long runs stay bounded in memory.
    ``scope`` names the modules (and their submodules) whose bindings of a
    patched function are rebound.
    """

    def __init__(self, span_limit: int = 200_000, scope: Tuple[str, ...] = ("repro",)):
        self.span_limit = span_limit
        self.scope = scope
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)  # filled by ``after`` hooks
        self.spans: List[Span] = []
        self.op: Optional[int] = None
        self._stack: List[List[Any]] = []  # open spans: [id, name, start, child s]
        self._next_id = 0
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------------

    def enter(self, name: str) -> None:
        sid = self._next_id
        self._next_id = sid + 1
        self._stack.append([sid, name, perf_counter(), 0.0])

    def exit(self) -> None:
        end = perf_counter()
        sid, name, start, child = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.incl_s[name] += duration
        self.calls[name] += 1
        parent = None
        if self._stack:
            top = self._stack[-1]
            top[3] += duration
            parent = top[0]
        if len(self.spans) < self.span_limit:
            self.spans.append((sid, name, start, end, parent, self.op))

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self.enter("python.gc:collect")
        elif self._stack and self._stack[-1][1] == "python.gc:collect":
            self.exit()

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, float]]:
        """Copies of (self time per layer, calls per span name, counts)."""
        per_layer: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            per_layer[layer_of(name)] += seconds
        return dict(per_layer), dict(self.calls), dict(self.counts)

    def since(self, before: Tuple[Dict[str, Any], ...]) -> Tuple[Dict[str, Any], ...]:
        """What :meth:`snapshot` gained since ``before``, part by part."""
        return tuple(
            {k: v - old.get(k, 0) for k, v in new.items()}
            for old, new in zip(before, self.snapshot())
        )

    # -- instrumentation ---------------------------------------------------------

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        after: Optional[Callable[[Tuple[Any, ...], Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span called ``name``; ``after(args, result)``
        runs once the span has closed (for counting outputs)."""
        enter = self.enter
        exit_ = self.exit

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch_method(self, cls: type, attr: str, layer: str) -> None:
        """Trace ``cls.attr`` for every instance, subclasses included."""
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, f"{layer}:{attr}"))

    def patch_function(self, fn: Callable[..., Any], layer: str, after=None) -> None:
        """Trace module function ``fn`` wherever a module in scope binds it.

        Modules that ``from x import fn`` hold their own reference, so
        every module in :attr:`scope` binding the same object is rebound.
        """
        traced = self.wrap(fn, f"{layer}:{fn.__name__}", after)
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".", 1)[0] not in self.scope:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, fn))
                    setattr(module, attr, traced)

    def install_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every patched entry point and detach from the GC."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines (times in seconds)."""
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, start, end, parent, op in self.spans:
                out.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )
