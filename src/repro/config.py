"""The cache and service configuration, as plain values.

:class:`CacheConfig` describes the **result cache**
(:mod:`repro.runner.cache`) — finished work-unit payloads on disk,
controlled by ``--cache-dir`` / ``--no-cache``.  The CLI builds one and
threads it through :class:`~repro.experiments.registry.ExperimentParams`
to the sweep runner.  It is a value: building or passing one changes
nothing in the process.

:func:`default_cache_dir` lives here because both the result cache and
the service directory root under it.

:class:`ServiceConfig` is the same idea for the experiment service
(:mod:`repro.service`): one picklable dataclass carrying every server
knob — bind address, pool size, drain budget, the service state
directory — that the CLI builds once and hands to
:class:`~repro.service.server.ExperimentServer`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.runner.cache import ResultCache

#: Schema tag for results the experiment service stores through the
#: shared :class:`~repro.runner.cache.ResultCache`.  Folded into every
#: cache key, so bumping it (when the service's job decomposition or
#: payload encoding changes meaning) invalidates service-produced
#: entries without touching the package version.  Lives here, not in
#: :mod:`repro.service`, so the cache can import it without a cycle.
SERVICE_CACHE_TAG = "service-v1"


def default_cache_dir() -> Path:
    """``$MIRAGE_CACHE_DIR``, else ``$XDG_CACHE_HOME/mirage``, else
    ``~/.cache/mirage``."""
    env = os.environ.get("MIRAGE_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "mirage"


def default_service_dir() -> Path:
    """``$MIRAGE_SERVICE_DIR``, else ``service/`` under the cache dir.

    The service directory holds everything a running server owns: the
    ``server.json`` address file, the job journal, and the per-job
    JSONL stream files.  Rooting it under :func:`default_cache_dir`
    keeps every on-disk artifact of the system under one tree.
    """
    env = os.environ.get("MIRAGE_SERVICE_DIR")
    if env:
        return Path(env)
    return default_cache_dir() / "service"


@dataclass
class CacheConfig:
    """The result-cache selection, in one picklable place.

    Attributes:
        cache_dir: root for the result cache
            (``None`` = :func:`default_cache_dir`).
        use_result_cache: consult/populate the on-disk result cache.
    """

    cache_dir: str | Path | None = None
    use_result_cache: bool = True

    def result_cache(self) -> "ResultCache | None":
        """The :class:`~repro.runner.cache.ResultCache` this config
        asks for, or ``None`` when the result cache is off."""
        if not self.use_result_cache:
            return None
        from repro.runner.cache import ResultCache

        return ResultCache(self.cache_dir)


@dataclass
class ServiceConfig:
    """Every experiment-server knob, in one picklable place.

    Attributes:
        host: interface the server binds; loopback by default — the
            service trusts its clients.
        port: TCP port to bind; 0 picks an ephemeral port (the bound
            address is published in ``<service_dir>/server.json``).
        workers: processes in the server's worker pool (>= 1), and
            the most units it runs at once.
        drain_timeout: seconds a graceful drain waits for in-flight
            work before shutting down anyway.
        service_dir: state directory (``None`` =
            :func:`default_service_dir`): address file, journal,
            per-job stream files.
        cache: the result cache the dedup layer keys and stores
            through; ``None`` means ``CacheConfig()``.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    drain_timeout: float = 30.0
    service_dir: str | Path | None = None
    cache: CacheConfig | None = None

    def resolved_dir(self) -> Path:
        """The service directory this config addresses, as a Path."""
        if self.service_dir is not None:
            return Path(self.service_dir)
        return default_service_dir()

    def cache_config(self) -> CacheConfig:
        """The cache configuration the service runs under."""
        return self.cache if self.cache is not None else CacheConfig()
