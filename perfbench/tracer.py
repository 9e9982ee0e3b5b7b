"""In-memory tracing of the program's layers, installed from outside.

The benchmark wraps public functions of the ``repro`` packages, so the
program itself carries no benchmark code.  Two kinds of wrapper exist:

* span wrappers for per-item and per-layer calls (``synthesize``,
  ``CircuitStore.get``, ``WorkerPool.run`` ...): one record each, with
  name, start, end, self time, thread and the span that caused it;
* aggregate wrappers for per-candidate functions (``substitute``,
  ``node_priority``, queue ``push``/``pop`` ...): only calls, total and
  self time, which keeps the traced run's overhead bounded.

Self time is a call's duration minus the time its traced callees took
in the same thread.  A call made inside another call of the same layer
is "nested": its layer's total time already contains it.  Spans stay in
memory; ``dump`` writes them out when the run ends.  Forked children
(portfolio slices, service pool workers) get the original functions
back, so they run untraced.

Timestamps are ``time.monotonic_ns``, one clock for every process on the
host, so a client can line up its own timings with a daemon's spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

#: Wrapped function -> layer (the ``repro`` package it belongs to).
LAYER_OF = {
    "PPRMSystem.from_permutation": "pprm",
    "PPRMSystem.substitute": "pprm",
    "synthesize": "synth",
    "enumerate_substitutions": "synth",
    "node_priority": "synth",
    "MaxPriorityQueue.push": "synth",
    "MaxPriorityQueue.pop": "synth",
    "Circuit.implements": "circuits",
    "canonicalize": "store",
    "CircuitStore.__init__": "store",
    "CircuitStore.get": "store",
    "CircuitStore.put": "store",
    "SegmentWriter.append": "store",
    "SynthesisService.synthesize": "store.service",
    "WorkerPool.run": "harness",
    "synthesize_portfolio": "parallel",
}

LAYERS = ("pprm", "synth", "circuits", "store", "store.service",
          "harness", "parallel")


class Tracer:
    """Span and aggregate recorder for one process."""

    def __init__(self, context_names=()):
        self.spans: list[dict] = []
        #: Span names that, called with nothing traced above them, become
        #: the context of spans other threads start while they run.
        self.context_names = frozenset(context_names)
        self.aggregates: dict[str, list[int]] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []
        #: Span id new top-level spans of any thread attach to (the
        #: current item, or the one open service request).
        self.context: int | None = None
        self.item: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, function):
        tracer = self

        layer = LAYER_OF[name]

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = tracer._parent(stack)
            nested = any(frame[2] == layer for frame in stack)
            owns_context = not stack and name in tracer.context_names
            if owns_context:
                tracer.context = span_id
            frame = [0, span_id, layer]
            stack.append(frame)
            start = time.monotonic_ns()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.monotonic_ns()
                stack.pop()
                if owns_context:
                    tracer.context = None
                if stack:
                    stack[-1][0] += end - start
                tracer.spans.append({
                    "id": span_id, "name": name, "parent": parent,
                    "item": tracer.item, "thread": threading.get_ident(),
                    "start": start, "end": end, "nested": nested,
                    "self": end - start - frame[0],
                    **_attributes(name, args, result),
                })

        return traced

    def _aggregate_wrapper(self, name, function):
        tracer = self
        layer = LAYER_OF[name]
        totals = self.aggregates.setdefault(name, [0, 0, 0, 0])

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            nested = any(frame[2] == layer for frame in stack)
            frame = [0, None, layer]
            stack.append(frame)
            start = time.monotonic_ns()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.monotonic_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[0]
                if not nested:
                    totals[3] += elapsed

        return traced

    def _parent(self, stack):
        for frame in reversed(stack):
            if frame[1] is not None:
                return frame[1]
        return self.context

    def open_span(self, name: str) -> dict:
        """Start a benchmark-side span (an item); close with ``close_span``."""
        span = {"id": next(self._ids), "name": name, "parent": None,
                "item": self.item, "thread": threading.get_ident(),
                "start": time.monotonic_ns()}
        self.context = span["id"]
        self._stack().append([0, span["id"], None])
        return span

    def close_span(self, span: dict) -> None:
        frame = self._stack().pop()
        span["end"] = time.monotonic_ns()
        span["self"] = span["end"] - span["start"] - frame[0]
        self.context = None
        self.spans.append(span)

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attribute, name, aggregate=False):
        original = owner.__dict__[attribute]
        function = original
        wrap_kind = None
        if isinstance(original, classmethod):
            function, wrap_kind = original.__func__, classmethod
        elif isinstance(original, staticmethod):
            function, wrap_kind = original.__func__, staticmethod
        make = self._aggregate_wrapper if aggregate else self._span_wrapper
        wrapped = make(name, function)
        if wrap_kind is not None:
            wrapped = wrap_kind(wrapped)
        setattr(owner, attribute, wrapped)
        self._undo.append((owner, attribute, original))

    def install(self) -> None:
        """Wrap every traced function of the program's layers."""
        import repro.parallel.portfolio as portfolio
        import repro.store.service as service
        import repro.synth.rmrls as rmrls
        from repro.circuits.circuit import Circuit
        from repro.harness.pool import WorkerPool
        from repro.pprm.system import PPRMSystem
        from repro.store.segments import SegmentWriter
        from repro.store.store import CircuitStore

        self._patch(PPRMSystem, "from_permutation",
                    "PPRMSystem.from_permutation")
        self._patch(PPRMSystem, "substitute", "PPRMSystem.substitute",
                    aggregate=True)
        self._patch(rmrls, "synthesize", "synthesize")
        self._patch(rmrls, "enumerate_substitutions",
                    "enumerate_substitutions", aggregate=True)
        self._patch(rmrls, "node_priority", "node_priority", aggregate=True)
        self._patch(rmrls.MaxPriorityQueue, "push", "MaxPriorityQueue.push",
                    aggregate=True)
        self._patch(rmrls.MaxPriorityQueue, "pop", "MaxPriorityQueue.pop",
                    aggregate=True)
        self._patch(Circuit, "implements", "Circuit.implements")
        self._patch(service, "canonicalize", "canonicalize")
        self._patch(CircuitStore, "__init__", "CircuitStore.__init__")
        self._patch(CircuitStore, "get", "CircuitStore.get")
        self._patch(CircuitStore, "put", "CircuitStore.put")
        self._patch(SegmentWriter, "append", "SegmentWriter.append")
        self._patch(service.SynthesisService, "synthesize",
                    "SynthesisService.synthesize")
        self._patch(WorkerPool, "run", "WorkerPool.run")
        self._patch(portfolio, "synthesize_portfolio", "synthesize_portfolio")
        os.register_at_fork(after_in_child=self.uninstall)

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def dump(self, path: str) -> None:
        """Write spans and aggregates as JSON lines."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
            for name, (calls, total, self_ns, outer) in sorted(
                self.aggregates.items()
            ):
                handle.write(json.dumps({
                    "aggregate": name, "calls": calls, "total": total,
                    "self": self_ns, "outer": outer,
                }, sort_keys=True) + "\n")


def _attributes(name, args, result) -> dict:
    """Per-span facts the report needs that only the call site knows."""
    if name == "WorkerPool.run" and isinstance(result, list):
        searched = [
            float((outcome.stats or {}).get("elapsed_seconds") or 0.0)
            for outcome in result
        ]
        return {
            "search_ns": int(max(searched, default=0.0) * 1e9),
            "retries": sum(max(0, outcome.attempts - 1) for outcome in result),
        }
    return {}


def layer_report(spans, aggregates, wall_ns) -> dict:
    """Per-layer calls, total and self time, plus the unattributed rest.

    ``spans`` and ``aggregates`` are as read back from :meth:`Tracer.dump`
    (aggregates as ``name -> (calls, total, self, outer)``); ``wall_ns``
    is the wall time of the timed loop.  A layer's total counts only its
    calls that are not nested in another call of the same layer.  Self
    times of all layers plus ``unattributed`` sum to the wall time.  A
    span that ran in another thread while a service request waited (the
    batcher's pool run and store write) is charged to its own layer and
    taken out of the request's self time.
    """
    layers = {
        layer: {"calls": 0, "total_ns": 0, "self_ns": 0} for layer in LAYERS
    }
    cross = _cross_thread_children(spans)
    for span in spans:
        layer = LAYER_OF.get(span["name"])
        if layer is None:
            continue
        row = layers[layer]
        row["calls"] += 1
        if not span["nested"]:
            row["total_ns"] += span["end"] - span["start"]
        row["self_ns"] += span["self"] - cross.get(span["id"], 0)
    for name, (calls, _, self_ns, outer) in aggregates.items():
        row = layers[LAYER_OF[name]]
        row["calls"] += calls
        row["total_ns"] += outer
        row["self_ns"] += self_ns
    attributed = sum(row["self_ns"] for row in layers.values())
    return {"layers": layers, "wall_ns": wall_ns,
            "unattributed_ns": wall_ns - attributed}


def _cross_thread_children(spans) -> dict:
    """Time of top-level spans of other threads, per span that caused it."""
    by_id = {span["id"]: span for span in spans}
    charged: dict[int, int] = {}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None and parent["thread"] != span["thread"]:
            charged[parent["id"]] = (
                charged.get(parent["id"], 0) + span["end"] - span["start"]
            )
    return charged
