"""Layer spans recorded from outside the program.

:class:`LayerTracer` replaces public functions and methods of the
layers under test with thin wrappers that record one span per call —
layer name, start, end and the span that caused it — keeps the spans in
memory, and puts every original back on :meth:`LayerTracer.restore`.
Nothing inside ``src/`` changes: the spans sit at the calls into each
layer, so the program runs the same code with tracing on or off.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  Spans opened on a thread with no open
span of its own (the serve front-end's executor thread) hang under the
run's root span, so the front-end's self time excludes the exchanges it
waits for.

Serve workers are forked from the traced parent, so they inherit the
wrappers; :meth:`LayerTracer.wrap_worker_entry` clears the inherited
spans at worker start and writes the worker's spans to a JSON file when
the worker's loop returns, for the parent to merge after shutdown.
"""

from __future__ import annotations

import gc
import inspect
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

_ABSENT = object()


class Span:
    __slots__ = ("layer", "start", "end", "parent")

    def __init__(self, layer: str, start: float, parent: Optional["Span"]):
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent


class LayerTracer:
    """Spans, lane counts and GC pauses of one traced phase."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.root: Optional[Span] = None
        #: span name -> lanes the calls handled (observers add to it)
        self.lanes: Dict[str, float] = defaultdict(float)
        #: CPU time of the thread running the wrapped coroutines (the
        #: serve front-end's event loop), excluding time spent waiting
        self.loop_cpu_s = 0.0
        self.gc_pauses: List[Tuple[int, float]] = []
        self._gc_start = 0.0
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        #: per-layer aggregates from worker processes (see merge_worker)
        self.worker_tables: List[Dict[str, Dict[str, float]]] = []

    # ------------------------------------------------------------------
    # span recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, is_root: bool) -> Span:
        stack = self._stack()
        span = Span(layer, time.perf_counter(), stack[-1] if stack else self.root)
        if is_root:
            self.root = span
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        observe: Optional[Callable] = None,
        root: bool = False,
    ) -> None:
        """Record a ``layer`` span around every call of ``owner.attr``
        (a class, module or instance attribute).  ``observe(span, args,
        result)`` runs after each call, outside the span.  A ``root``
        span adopts the spans later opened on threads with none open."""
        saved = vars(owner).get(attr, _ABSENT)
        original = getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(original):

            async def wrapper(*args, **kwargs):
                span = tracer._open(layer, root)
                cpu = time.thread_time()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer.loop_cpu_s += time.thread_time() - cpu
                    tracer._close(span)
                if observe is not None:
                    observe(span, args, result)
                return result

        else:

            def wrapper(*args, **kwargs):
                span = tracer._open(layer, root)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(span)
                if observe is not None:
                    observe(span, args, result)
                return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, saved))

    def restore(self) -> None:
        """Put every wrapped attribute back (idempotent)."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # ------------------------------------------------------------------
    # garbage-collector pauses of this process
    # ------------------------------------------------------------------
    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            pause = time.perf_counter() - self._gc_start
            self.gc_pauses.append((info["generation"], pause))

    # ------------------------------------------------------------------
    # serve worker processes
    # ------------------------------------------------------------------
    def wrap_worker_entry(self, module: object, attr: str, out_dir: Path) -> None:
        """Wrap a forked worker's entry point: start the worker with an
        empty span list and write its per-layer aggregates to
        ``out_dir`` when the entry point returns."""
        saved = vars(module).get(attr, _ABSENT)
        original = getattr(module, attr)
        tracer = self

        def traced_entry(cfg, *args, **kwargs):
            tracer.spans = []
            tracer.root = None
            tracer.lanes = defaultdict(float)
            tracer.worker_tables = []
            tracer._local = threading.local()
            try:
                return original(cfg, *args, **kwargs)
            finally:
                path = out_dir / f"worker-{cfg.shard_id}.json"
                path.write_text(json.dumps(tracer.layer_table()))

        setattr(module, attr, traced_entry)
        self._patches.append((module, attr, saved))

    def merge_worker(self, path: Path) -> None:
        """Add the per-layer aggregates a worker wrote to ``path``."""
        self.worker_tables.append(json.loads(path.read_text()))

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive time, self time and lanes,
        over this process's spans plus any merged worker aggregates."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append(span)
        table: Dict[str, Dict[str, float]] = defaultdict(_cell)
        for span in self.spans:
            cell = table[span.layer]
            duration = span.end - span.start
            cell["calls"] += 1
            cell["total_s"] += duration
            cell["self_s"] += duration - _covered(span, children[id(span)])
        for name, lanes in self.lanes.items():
            table[name]["lanes"] = lanes
        for worker in self.worker_tables:
            for name, row in worker.items():
                for key, value in row.items():
                    table[name][key] += value
        return dict(table)


def _cell() -> Dict[str, float]:
    return {"calls": 0.0, "total_s": 0.0, "self_s": 0.0, "lanes": 0.0}


def _covered(span: Span, kids: List[Span]) -> float:
    """Length of the union of ``kids``' intervals inside ``span``."""
    covered = 0.0
    reach = span.start
    for kid in sorted(kids, key=lambda s: s.start):
        lo = max(kid.start, reach)
        hi = min(kid.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered
