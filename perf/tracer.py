"""Outside-in tracing for the benchmark's traced passes.

The tracer wraps public layer entry points on their classes at run
time and restores the original attributes afterwards; nothing inside
``src/`` knows it exists, and untraced passes never import this module.

Every wrapped call folds into a per-``(layer, parent layer)`` aggregate
of calls and total time, which is how the hot layers — per-interval
engine phases, memory accesses — are counted without keeping one record
per call.  Cold layers (sweeps, pool maps, engine runs, service
requests, and the benchmark's own steps) are also kept as individual
spans: ``(id, parent id, name, start, end, root id)``, where the root
id names the step or job the span belongs to.

Self time is a layer's total time minus its wrapped children's, less
the wrapper cost the children added; that per-call cost is measured by
:func:`calibrate` before the pass starts.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: Keep every call of the layer as an individual span (cold layers).
SPAN = 1
#: Count calls that return something other than ``None`` (lookups).
HITS = 2
#: Sum ``result.instructions`` over calls (core runs).
INSTRUCTIONS = 4
#: Sum ``result.intervals`` and ``result.intervals × apps`` (engine runs).
INTERVALS = 8

#: ``(module, class, attribute, layer, flags)`` for every wrapped entry
#: point.  Layer names are module names; a class that overrides an
#: inherited wrapped method is listed on its own.
TARGETS: tuple[tuple[str, str, str, str, int], ...] = (
    ("repro.runner", "SweepRunner", "map", "runner.map", SPAN),
    ("repro.runner", "ResultCache", "get", "runner.cache.get", 0),
    ("repro.runner", "ResultCache", "put", "runner.cache.put", 0),
    ("repro.runner", "WarmPool", "shared", "runner.pool.shared", SPAN),
    ("repro.runner", "WarmPool", "map", "runner.pool.map", SPAN),
    ("repro.engine", "IntervalEngine", "run", "engine.loop",
     SPAN | INTERVALS),
    ("repro.engine", "ArbitrationPhase", "run", "engine.arbitration", 0),
    ("repro.engine", "MigrationPhase", "run", "engine.migration", 0),
    ("repro.engine", "ExecutionPhase", "run", "engine.execution", 0),
    ("repro.engine", "EnergyPhase", "run", "engine.energy", 0),
    ("repro.engine", "LifecyclePhase", "run", "engine.lifecycle", 0),
    ("repro.engine", "AnalyticBackend", "advance_all",
     "engine.backends.advance_all", 0),
    ("repro.engine", "AnalyticBackend", "views_batch",
     "engine.backends.views_batch", 0),
    ("repro.arbiter", "Arbitrator", "pick_batch", "arbiter.pick_batch", 0),
    ("repro.arbiter", "SCMPKIArbitrator", "pick", "arbiter.pick", 0),
    ("repro.arbiter", "SCMPKIArbitrator", "pick_batch",
     "arbiter.pick_batch", 0),
    ("repro.arbiter", "SCMPKIMaxSTPArbitrator", "pick", "arbiter.pick", 0),
    ("repro.arbiter", "MaxSTPArbitrator", "pick", "arbiter.pick", 0),
    ("repro.arbiter", "FairArbitrator", "pick", "arbiter.pick", 0),
    ("repro.arbiter", "SCMPKIFairArbitrator", "pick", "arbiter.pick", 0),
    ("repro.cmp.detailed", "DetailedBackend", "advance",
     "cmp.detailed.advance", 0),
    ("repro.simcache", "SliceMemo", "lookup", "simcache.lookup", HITS),
    ("repro.simcache", "SliceMemo", "store", "simcache.store", 0),
    ("repro.cores", "OutOfOrderCore", "run", "cores.ooo", INSTRUCTIONS),
    ("repro.cores", "InOrderCore", "run", "cores.ino", INSTRUCTIONS),
    ("repro.cores", "OinOCore", "run", "cores.oino", INSTRUCTIONS),
    ("repro.cores", "CGOoOCore", "run", "cores.cgooo", INSTRUCTIONS),
    ("repro.memory", "CoreMemory", "fetch", "memory.fetch", 0),
    ("repro.memory", "CoreMemory", "load", "memory.load", 0),
    ("repro.memory", "CoreMemory", "store", "memory.store", 0),
    ("repro.memory", "MemoryHierarchy", "l2_access", "memory.l2_access", 0),
    ("repro.schedule", "ScheduleCache", "lookup", "schedule.lookup", HITS),
    ("repro.schedule", "ScheduleCache", "insert", "schedule.insert", 0),
    ("repro.service", "ServiceClient", "submit", "service.submit", SPAN),
    ("repro.service", "ServiceClient", "wait", "service.wait", SPAN),
)


class Tracer:
    """Span and aggregate recorder for one pass.

    Each thread keeps its own layer stack, span stack and aggregate
    table, so the service workload's client threads never share mutable
    state; the tables are merged when the pass reads them.  A row holds
    only ``[calls, total seconds]`` per ``(layer, parent layer)``: the
    time a layer spent in wrapped children is the sum of the rows whose
    parent it is, so the hot path never touches its parent's frame.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: list[dict] = []
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._saved: list[tuple[type, str, Any]] = []
        #: Per-call wrapper cost, outside and inside the timed window.
        self.cost_out = 0.0
        self.cost_in = 0.0

    # -- recording -----------------------------------------------------
    def _state(self) -> tuple[list, dict, list]:
        """This thread's (layer stack, aggregate table, span stack)."""
        local = self._local
        try:
            return local.state
        except AttributeError:
            local.state = ([""], {}, [(0, 0)])
            self._tables.append(local.state[1])
            return local.state

    def wrap(self, fn: Callable, layer: str, flags: int = 0) -> Callable:
        """*fn* instrumented as *layer* (see the module flags)."""
        local = self._local
        state = self._state
        clock = time.perf_counter
        observe = self._observer(layer, flags)
        if flags & SPAN:
            return self._wrap_span(fn, layer, observe)

        def traced(*args, **kwargs):
            try:
                stack, table, _ = local.state
            except AttributeError:
                stack, table, _ = state()
            key = (layer, stack[-1])
            stack.append(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                row = table.get(key)
                if row is None:
                    row = table[key] = [0, 0.0]
                row[0] += 1
                row[1] += elapsed
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_span(self, fn: Callable, layer: str,
                   observe: Callable | None) -> Callable:
        """The cold-layer wrapper: aggregates plus one span per call."""
        state = self._state
        clock = time.perf_counter
        spans = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            stack, table, open_spans = state()
            key = (layer, stack[-1])
            parent_id, root_id = open_spans[-1]
            span_id = next(ids)
            stack.append(layer)
            open_spans.append((span_id, root_id or span_id))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                open_spans.pop()
                row = table.setdefault(key, [0, 0.0])
                row[0] += 1
                row[1] += elapsed
                spans.append((span_id, parent_id, layer, start,
                              start + elapsed, root_id or span_id))
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observer(self, layer: str, flags: int) -> Callable | None:
        counts = self.counts
        if flags & HITS:
            def hits(result):
                if result is not None:
                    counts[layer + ".hits"] = counts.get(layer + ".hits", 0) + 1
            return hits
        if flags & INSTRUCTIONS:
            def instructions(result):
                counts["cores.instructions"] = (
                    counts.get("cores.instructions", 0)
                    + result.instructions)
            return instructions
        if flags & INTERVALS:
            def intervals(result):
                counts["engine.intervals"] = (
                    counts.get("engine.intervals", 0) + result.intervals)
                counts["engine.app_intervals"] = (
                    counts.get("engine.app_intervals", 0)
                    + result.intervals * len(result.apps))
            return intervals
        return None

    # -- installation --------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        """Wrap every target attribute on its class."""
        for module, cls_name, attr, layer, flags in targets:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(
                    self.wrap(original.__func__, layer, flags))
            else:
                replacement = self.wrap(original, layer, flags)
            self._saved.append((cls, attr, original))
            setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        """Put every original attribute back, newest wrap first."""
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)

    # -- reading -------------------------------------------------------
    def aggregates(self) -> list[dict]:
        """Merged per-``(layer, parent)`` rows with corrected self time."""
        merged: dict[tuple[str, str], list] = {}
        children: dict[str, list] = {}
        for table in self._tables:
            for (layer, parent), (calls, total) in list(table.items()):
                acc = merged.setdefault((layer, parent), [0, 0.0])
                acc[0] += calls
                acc[1] += total
                below = children.setdefault(parent, [0, 0.0])
                below[0] += calls
                below[1] += total
        layer_total: dict[str, float] = {}
        for (layer, _), (_, total) in merged.items():
            layer_total[layer] = layer_total.get(layer, 0.0) + total
        rows = []
        for (layer, parent), (calls, total) in sorted(merged.items()):
            # Children are keyed by layer name only, so a layer's child
            # time is shared out over its parents by their total time.
            share = total / layer_total[layer] if total else 0.0
            child_calls, child = children.get(layer, (0, 0.0))
            self_s = (total - share * (child + child_calls * self.cost_out)
                      - calls * self.cost_in)
            rows.append({"layer": layer, "parent": parent, "calls": calls,
                         "total_s": total, "child_s": share * child,
                         "self_s": max(0.0, self_s)})
        return rows

    def dump(self, path: Path, **header: Any) -> None:
        """Write spans, aggregates and counts as one JSON document."""
        document = {
            **header,
            "calibration": {"cost_out_s": self.cost_out,
                            "cost_in_s": self.cost_in},
            "counts": self.counts,
            "aggregates": self.aggregates(),
            "spans": [dict(zip(("id", "parent", "name", "start", "end",
                                "root"), span)) for span in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=1) + "\n")


def _noop() -> None:
    return None


def calibrate(tracer: Tracer, calls: int = 20_000, repeats: int = 5) -> None:
    """Measure the wrapper's per-call cost and store it on *tracer*.

    ``cost_in`` is what a wrapped no-op's recorded duration holds
    beyond the no-op itself; ``cost_out`` is the rest of the added cost,
    which lands in the caller's time.  Minimum over *repeats* trials.
    """
    clock = time.perf_counter
    probe = Tracer()
    wrapped = probe.wrap(_noop, "trace.calibration")
    loop = range(calls)
    best_total = best_in = float("inf")
    for _ in range(repeats):
        start = clock()
        for _ in loop:
            _noop()
        raw = clock() - start
        table = probe._state()[1]
        before = table.get(("trace.calibration", ""), [0, 0.0])[1]
        start = clock()
        for _ in loop:
            wrapped()
        traced = clock() - start
        recorded = table[("trace.calibration", "")][1] - before
        best_total = min(best_total, (traced - raw) / calls)
        best_in = min(best_in, max(0.0, recorded - raw) / calls)
    tracer.cost_in = best_in
    tracer.cost_out = max(0.0, best_total - best_in)
