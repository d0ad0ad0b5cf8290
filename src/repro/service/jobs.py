"""Job and unit-task state for the experiment service.

A *job* is one client submission: a set of work units plus bookkeeping
(state, priority, per-unit results).  A *unit task* is one unit of
work the server's worker pool actually executes; several jobs may
subscribe to the same task when their submissions overlap — that
sharing, keyed by the result cache's own digests, is how concurrent
identical submissions coalesce onto a single execution.

:class:`JobQueue` is the priority queue between submission and the
pool: a heap ordered by ``(-priority, seq)``, so higher priorities
run first and ties serve in submission order.  A task pushed again
(a coalescing submission raised its priority) keeps its original
sequence number, so it stays *ahead* of everything submitted after
it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

from repro.runner.units import WorkUnit
from repro.service.protocol import SubmitRequest

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job never leaves.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})


@dataclass
class UnitTask:
    """One unit of executable work, shared by every subscribing job.

    Attributes:
        digest: the unit's service-wide cache digest (its identity).
        unit: the picklable work unit itself.
        job_ids: jobs waiting on this task, in subscription order.
        priority: best priority among subscribers (heap order).
        seq: submission sequence of the first subscriber; preserved
            across requeues so the task does not lose its place.
        running: set once the task is handed to the worker pool.
    """

    digest: str
    unit: WorkUnit
    job_ids: list[str] = field(default_factory=list)
    priority: int = 0
    seq: int = 0
    running: bool = False


@dataclass
class Job:
    """One submission's full lifecycle record.

    Attributes:
        job_id: server-assigned id (``"j1"``, ``"j2"``, ...).
        request: the submission that created it.
        digests: unit digests, in decomposition order.
        units: the decomposed work units, in the same order.
        state: one of the module's lifecycle states.
        priority: scheduling priority (higher first).
        seq: global submission sequence number.
        created: submission wall-clock time.
        results: digest → result envelope, filled as units complete.
        error: first failure detail, for ``"failed"`` jobs.
        submissions: identical submissions coalesced onto this job
            (1 = never coalesced).
    """

    job_id: str
    request: SubmitRequest
    digests: list[str]
    units: list[WorkUnit]
    state: str = QUEUED
    priority: int = 0
    seq: int = 0
    created: float = 0.0
    results: dict[str, Any] = field(default_factory=dict)
    error: str = ""
    submissions: int = 1

    @property
    def units_total(self) -> int:
        """How many units the job decomposed into."""
        return len(self.digests)

    @property
    def units_done(self) -> int:
        """How many of them have results so far.

        Counted over ``digests`` (not ``results``, which is keyed by
        digest) so jobs with duplicate units still reach
        ``units_done == units_total``.
        """
        return sum(1 for d in self.digests if d in self.results)

    @property
    def finished(self) -> bool:
        """True once the job reached a terminal state."""
        return self.state in TERMINAL_STATES

    def ordered_results(self) -> list[Any]:
        """Result envelopes in decomposition order (complete jobs)."""
        return [self.results[d] for d in self.digests]

    def info(self) -> dict:
        """The JSON job summary served by ``GET /jobs``."""
        return {
            "id": self.job_id,
            "experiment": self.request.describe(),
            "state": self.state,
            "priority": self.priority,
            "units_total": self.units_total,
            "units_done": self.units_done,
            "submissions": self.submissions,
            "created": self.created,
            "error": self.error,
        }


class JobQueue:
    """The priority queue between submissions and the worker pool.

    A binary heap of ``(-priority, seq, digest)`` triples with lazy
    invalidation: pushing the same digest again (e.g. after a
    coalescing submission raised its priority) simply shadows the
    stale entry, and :meth:`pop` skips entries whose digest is no
    longer pending.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, str]] = []
        self._pending: set[str] = set()

    def __len__(self) -> int:
        return len(self._pending)

    def push(self, task: UnitTask) -> None:
        """Queue (or re-queue) *task* under its current priority."""
        self._pending.add(task.digest)
        heapq.heappush(self._heap, (-task.priority, task.seq, task.digest))

    def discard(self, digest: str) -> None:
        """Drop a digest from the pending set (lazy heap removal)."""
        self._pending.discard(digest)

    def pop(self) -> str | None:
        """The next pending digest by priority, or ``None`` if empty."""
        while self._heap:
            _, _, digest = heapq.heappop(self._heap)
            if digest in self._pending:
                self._pending.remove(digest)
                return digest
        return None

    def pending(self) -> set[str]:
        """A snapshot of every digest still waiting for the pool."""
        return set(self._pending)
