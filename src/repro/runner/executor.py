"""The sweep runner: cached, optionally-parallel work-unit execution.

:class:`SweepRunner.map` preserves unit order, so drivers aggregate
results exactly as their old serial loops did — the serial and parallel
paths produce bit-identical tables.  Equal units in one batch are
looked up and executed once.  Units already in the cache are
returned without executing; the rest fan out over the process-global
:class:`~repro.runner.pool.WarmPool` when ``jobs > 1`` — persistent
workers reused across sweeps, with per-unit wall times persisted by the
:class:`~repro.runner.cache.ResultCache` feeding longest-expected-first
dispatch — and run serially for pickling-hostile units, or when the
pool is unavailable (worker processes cannot be spawned, or the runner
is itself inside a pool worker).  Results are written back to the
cache as they complete.

With ``trace=`` set, every CMP unit is forced to record its
per-interval history and the runner appends the telemetry trace —
one run record per unit followed by its interval records — to the
JSONL file *in unit order, from the parent process*.  Serial,
parallel and cache-hit executions of the same units therefore write
byte-identical traces.
"""

from __future__ import annotations

import dataclasses
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.cmp.system import CMPResult
from repro.runner import units as units_mod
from repro.runner.cache import MISS, ResultCache, unit_digest
from repro.runner.pool import PoolUnavailable, WarmPool
from repro.runner.units import WorkUnit, unit_label
from repro.telemetry.events import RunRecord
from repro.telemetry.sinks import dump_record


@dataclass
class RunnerStats:
    """Timing and cache instrumentation for one runner's lifetime."""

    jobs: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    units_run: int = 0
    unit_seconds: list[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    mode: str = "serial"        #: "serial" | "warm-pool"
    trace_records: int = 0               #: JSONL records appended
    #: ``(seconds, label)`` for every executed unit — the fix for the
    #: old behaviour where per-unit timing died with the run: the
    #: executor persists these through the cache for LPT dispatch and
    #: the CLI surfaces the worst offenders.
    unit_timings: list[tuple[float, str]] = field(default_factory=list)

    @property
    def total_units(self) -> int:
        return self.cache_hits + self.cache_misses

    def note_unit(self, seconds: float, label: str) -> None:
        self.units_run += 1
        self.unit_seconds.append(seconds)
        self.unit_timings.append((seconds, label))

    def slowest_summary(self, k: int = 3) -> str:
        """``label 1.2s; label 0.8s`` for the *k* slowest units."""
        worst = sorted(self.unit_timings, reverse=True)[:k]
        return "; ".join(f"{label} {seconds:.2f}s"
                         for seconds, label in worst)

    def summary(self) -> str:
        """One-line report for the CLI."""
        parts = [f"{self.total_units} units"]
        if self.units_run:
            mean = sum(self.unit_seconds) / len(self.unit_seconds)
            parts.append(
                f"{self.units_run} executed ({self.mode}, jobs={self.jobs},"
                f" {mean:.2f}s mean {max(self.unit_seconds):.2f}s max)")
        if self.cache_hits:
            parts.append(f"{self.cache_hits} from cache")
        if self.trace_records:
            parts.append(f"{self.trace_records} trace records")
        parts.append(f"{self.wall_seconds:.1f}s wall")
        return "; ".join(parts)


def _picklable(obj: Any) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


class SweepRunner:
    """Executes :class:`WorkUnit` batches with caching and fan-out.

    Args:
        jobs: worker processes; 1 (the default) stays in-process.
        cache: a :class:`ResultCache`, or None to always execute.
        experiment: names the per-experiment wall-time hints file
            (:meth:`ResultCache.timings_path`) only.  Results are
            keyed by unit content, so equal units share one cache
            entry whichever experiment maps them.
        trace: JSONL file the telemetry trace of every CMP result is
            appended to (``None`` disables tracing).
    """

    def __init__(self, *, jobs: int = 1, cache: ResultCache | None = None,
                 experiment: str = "", trace: str | Path | None = None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.experiment = experiment
        self.trace = Path(trace) if trace is not None else None
        self.stats = RunnerStats(jobs=jobs)

    # ------------------------------------------------------------------
    def map(self, units: Sequence[WorkUnit]) -> list[Any]:
        """Results for *units*, in order.

        Each distinct unit is looked up and, on a miss, executed once;
        its result goes to every index that holds an equal unit (one
        shared object: results are read-only by convention).  Cache
        statistics still count per index.
        """
        start = time.perf_counter()
        units = list(units)
        if self.trace is not None:
            # Tracing needs the per-interval history; forcing the flag
            # here (rather than in each driver) also folds it into the
            # cache key, so traced and untraced sweeps never share
            # entries with mismatched history.
            units = [
                dataclasses.replace(u, record_history=True)
                if u.kind == "cmp" else u
                for u in units
            ]
        results: list[Any] = [None] * len(units)
        groups: dict[str, list[int]] = {}
        for i, unit in enumerate(units):
            groups.setdefault(unit_digest(unit), []).append(i)
        pending: dict[str, list[int]] = {}
        for digest, indices in groups.items():
            hit = (self.cache.get(units[indices[0]])
                   if self.cache is not None else MISS)
            if hit is MISS:
                pending[digest] = indices
                self.stats.cache_misses += len(indices)
            else:
                for i in indices:
                    results[i] = hit
                self.stats.cache_hits += len(indices)
        if pending:
            todo = [units[indices[0]] for indices in pending.values()]
            payloads = self._execute(todo, list(pending))
            for unit, indices, payload in zip(todo, pending.values(),
                                              payloads):
                for i in indices:
                    results[i] = payload
                if self.cache is not None:
                    self.cache.put(unit, payload)
        if self.trace is not None:
            self._append_trace(results)
        self.stats.wall_seconds += time.perf_counter() - start
        return results

    def run(self, unit: WorkUnit) -> Any:
        """Convenience for a single unit."""
        return self.map([unit])[0]

    # ------------------------------------------------------------------
    def _append_trace(self, results: Sequence[Any]) -> None:
        """Append each CMP result's telemetry records, in unit order.

        Runs in the parent process on the ordered ``results`` list, so
        the trace bytes are independent of jobs/cache state.
        """
        self.trace.parent.mkdir(parents=True, exist_ok=True)
        with open(self.trace, "a") as handle:
            for result in results:
                if not isinstance(result, CMPResult):
                    continue
                run = RunRecord(
                    config=result.config_name,
                    arbitrator=result.arbitrator_name,
                    intervals=result.intervals,
                    total_cycles=result.total_cycles,
                    counters={
                        "migrations": result.migrations,
                        "energy_pj": result.energy_pj,
                    },
                )
                handle.write(dump_record(run) + "\n")
                self.stats.trace_records += 1
                for record in result.history:
                    handle.write(dump_record(record) + "\n")
                    self.stats.trace_records += 1

    # ------------------------------------------------------------------
    def _execute(self, units: list[WorkUnit],
                 digests: list[str]) -> list[Any]:
        """Execute each of the distinct *units* once; payloads in order.

        *digests* are the units' :func:`unit_digest` values, the keys
        of the persisted wall-time hints.
        """
        payloads: list[Any] = []
        timings: dict[str, float] = {}
        try:
            for unit, digest, (payload, seconds) in zip(
                    units, digests, self._timed(units, digests)):
                payloads.append(payload)
                self.stats.note_unit(seconds, unit_label(unit))
                timings[digest] = seconds
        finally:
            # Persist whatever we timed — the next sweep's LPT input.
            if self.cache is not None:
                self.cache.record_timings(self.experiment, timings)
        return payloads

    def _timed(self, units: list[WorkUnit],
               digests: list[str]) -> Iterable[tuple[Any, float]]:
        """``(payload, seconds)`` per unit, in order: through the warm
        pool when ``jobs > 1`` and it can run here, else serially."""
        if (self.jobs > 1 and len(units) > 1
                and all(_picklable(u) for u in units)):
            try:
                return self._map_warm(units, digests)
            except PoolUnavailable:
                pass  # no pool here (sandbox or nesting): run serially
        return map(units_mod.timed_execute, units)

    def _map_warm(self, units, digests) -> list[tuple[Any, float]]:
        """Fan out over the shared warm pool, longest-expected-first.

        Cost hints come from the wall times previous runs persisted
        (:meth:`ResultCache.load_timings`); units never seen before
        have no hint and are conservatively dispatched first.
        """
        pool = WarmPool.shared(self.jobs)
        hints = (self.cache.load_timings(self.experiment)
                 if self.cache is not None else {})
        pairs = pool.map(units_mod.timed_execute, units,
                         costs=[hints.get(d) for d in digests])
        self.stats.mode = "warm-pool"
        return pairs


def run_units(units: Sequence[WorkUnit],
              runner: SweepRunner | None = None) -> list[Any]:
    """Map *units* through *runner*, or serially when none is given."""
    return (runner or SweepRunner()).map(units)
