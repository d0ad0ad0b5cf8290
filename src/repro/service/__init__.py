"""Simulation-as-a-service: the async experiment server.

The package turns the repository's experiment drivers into a
long-running service:

* :mod:`repro.service.server` — the asyncio job server behind
  ``mirage serve`` (priority queue, journal, streams), executing its
  units on a private :class:`~repro.runner.pool.WarmPool`;
* :mod:`repro.service.client` — the HTTP client behind ``mirage
  submit`` / ``jobs`` / ``tail``;
* :mod:`repro.service.protocol` — submissions and their
  decomposition into :class:`~repro.runner.units.WorkUnit` values;
* :mod:`repro.service.jobs`, :mod:`repro.service.journal` — job/task
  state and the restart journal.

See ``docs/service.md`` for the operational guide.
"""

from repro.config import ServiceConfig, default_service_dir
from repro.service.client import ServiceClient, ServiceError, discover
from repro.service.protocol import SubmitRequest, decompose
from repro.service.server import ExperimentServer, ServerHandle, serve

__all__ = [
    "ExperimentServer",
    "ServerHandle",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "SubmitRequest",
    "decompose",
    "default_service_dir",
    "discover",
    "serve",
]
