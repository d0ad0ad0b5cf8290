"""Content-addressed on-disk result cache for sweep work units.

Results live under ``~/.cache/mirage/`` (override with
``MIRAGE_CACHE_DIR`` or ``--cache-dir``), one JSON file per distinct
work unit at ``v<version>/<xx>/<digest>.json``.  ``<digest>`` is
:meth:`ResultCache.digest` — SHA-256 over the unit's fields, the
package version and the schema tags (:meth:`ResultCache.key_material`)
— and ``<xx>`` its first two hex digits, which keeps every directory
small.  A unit's identity is its content alone: no experiment name or
caller enters the key, so equal units share one entry whichever
experiment, CLI run or ``mirage serve`` job computed them first.  That
is sound because :func:`~repro.runner.units.execute_unit` is a pure
function of the unit's fields: an experiment that builds different
units gets different keys, and a simulator change bumps the version.

Streams are deterministic per ``(benchmark, seed)``, so a cached
:class:`~repro.cmp.system.CMPResult` is bit-identical to a re-run:
floats survive the JSON round-trip exactly (``repr`` shortest-float),
and ``"call"`` payloads are JSON-normalised at execution time.

Bumping :data:`repro.__version__` invalidates every entry, so stale
results can never leak across simulator changes; the key also folds in
the engine/backend schema tag
(:data:`repro.engine.backends.ENGINE_CACHE_TAG`) and the scenario
schema tag (:data:`repro.workloads.scenario.SCENARIO_CACHE_TAG`), so
results produced by a different loop/backend/scenario generation are
invalidated even when the package version is unchanged.  The detailed
tier's in-memory slice memo (:mod:`repro.simcache`) is not part of the
key: it never changes a result (``tests/test_equivalence.py``).

Per-experiment wall-time hints for the LPT scheduler live beside the
entries, at ``timings/<experiment>.json``, keyed by the version-free
:func:`unit_digest`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

import repro
from repro.cmp.system import CMPResult
from repro.config import SERVICE_CACHE_TAG, default_cache_dir
from repro.engine.backends import ENGINE_CACHE_TAG
from repro.runner.units import WorkUnit
from repro.telemetry.events import IntervalRecord
from repro.workloads.scenario import SCENARIO_CACHE_TAG

#: Sentinel distinguishing "not cached" from a legitimately-None payload.
MISS = object()


def unit_digest(unit: WorkUnit) -> str:
    """A *version-free* digest of a unit's fields.

    Unlike :meth:`ResultCache.digest`, this deliberately folds in
    **no** version or schema tags: it keys the per-unit wall-time
    hints behind the LPT scheduler, and a unit's *cost* survives
    version bumps even when its cached *result* must not.  A stale
    hint can only mis-order dispatch (costing a little makespan),
    never change a result.  Equal units have equal digests, which is
    also how :meth:`SweepRunner.map
    <repro.runner.executor.SweepRunner.map>` finds the repeats of a
    batch.
    """
    return _sha(_canonical(dataclasses.asdict(unit)))


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)


def _sha(material: str) -> str:
    return hashlib.sha256(material.encode()).hexdigest()[:32]


def encode_payload(value: Any) -> dict:
    """JSON-safe envelope for a unit result."""
    if isinstance(value, CMPResult):
        return {"type": "CMPResult", "value": dataclasses.asdict(value)}
    return {"type": "json", "value": value}


def decode_payload(envelope: dict) -> Any:
    if envelope["type"] == "CMPResult":
        fields = dict(envelope["value"])
        fields["history"] = [
            IntervalRecord(**sample)
            for sample in fields.get("history", [])
        ]
        return CMPResult(**fields)
    return envelope["value"]


class ResultCache:
    """Maps a :class:`WorkUnit` to its stored result, by content."""

    def __init__(self, cache_dir: str | Path | None = None):
        self.root = Path(cache_dir) if cache_dir else default_cache_dir()
        self.version = repro.__version__
        self.backend = ENGINE_CACHE_TAG

    # -- keying --------------------------------------------------------
    def key_material(self, unit: WorkUnit) -> str:
        """The canonical JSON string the cache key digests."""
        return _canonical({
            "backend": self.backend,
            # Scenario schedules and their placement semantics are
            # part of what a cached result means: bumping the
            # scenario-layer tag invalidates dynamic-run entries
            # without touching the package version.
            "scenario": SCENARIO_CACHE_TAG,
            # The experiment service stores its job results through
            # this cache (that sharing *is* the dedup layer), so its
            # schema generation is part of the key too.
            "service": SERVICE_CACHE_TAG,
            "unit": dataclasses.asdict(unit),
            "version": self.version,
        })

    def digest(self, unit: WorkUnit) -> str:
        """The unit's identity: 32 hex digits of SHA-256 over
        :meth:`key_material`.

        It names the unit's entry file and is the experiment service's
        unit digest, so "same digest", "same entry" and "one
        execution" are a single statement.
        """
        return _sha(self.key_material(unit))

    def path_for(self, unit: WorkUnit) -> Path:
        """The entry file a unit's result lives at."""
        return self._path(self.digest(unit))

    def _path(self, digest: str) -> Path:
        return self.root / f"v{self.version}" / digest[:2] / f"{digest}.json"

    # -- access --------------------------------------------------------
    def get(self, unit: WorkUnit) -> Any:
        """The stored payload, or :data:`MISS`.

        An unreadable, malformed or foreign entry is a miss, never an
        error: the unit simply executes again and overwrites it.
        """
        key = self.key_material(unit)
        try:
            entry = json.loads(self._path(_sha(key)).read_text())
        except (OSError, ValueError):
            return MISS
        # Guard against (vanishingly unlikely) digest collisions and
        # hand-edited files.
        if not isinstance(entry, dict) or entry.get("key") != key:
            return MISS
        try:
            return decode_payload(entry["payload"])
        except (KeyError, TypeError, ValueError):
            return MISS

    def put(self, unit: WorkUnit, payload: Any) -> Path:
        """Atomically publish a unit's payload; returns its path."""
        key = self.key_material(unit)
        path = self._path(_sha(key))
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"key": key, "payload": encode_payload(payload)}
        # Atomic publish: concurrent `mirage` runs may share the dir.
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    # -- per-unit wall-time hints --------------------------------------
    def timings_path(self, experiment: str) -> Path:
        """Where an experiment's ``{unit_digest: seconds}`` hints live.

        Deliberately *outside* the ``v<version>/`` entry tree: timing
        hints are advisory scheduler input keyed by
        :func:`unit_digest`, so they survive version bumps that
        invalidate the results themselves.
        """
        return self.root / "timings" / f"{experiment or 'adhoc'}.json"

    def load_timings(self, experiment: str) -> dict[str, float]:
        """The persisted wall-time hints (empty when none or malformed)."""
        try:
            entry = json.loads(self.timings_path(experiment).read_text())
            return {str(k): float(v) for k, v in entry["wall"].items()}
        except (OSError, ValueError, TypeError, KeyError, AttributeError):
            return {}

    def record_timings(self, experiment: str,
                       timings: dict[str, float]) -> None:
        """Merge *timings* into the persisted hints, atomically.

        Best-effort by design: a full disk or read-only cache must
        never fail a sweep over scheduling hints.
        """
        if not timings:
            return
        path = self.timings_path(experiment)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            merged = self.load_timings(experiment)
            merged.update(
                {k: round(float(v), 6) for k, v in timings.items()})
            entry = {"schema": "mirage-timings/v1", "wall": merged}
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(tmp, path)
        except OSError:
            pass
