"""Submissions and job decomposition for the experiment service.

What a client sends, and what the server makes of it, is defined here:

* :class:`SubmitRequest` — what a client asks for (named experiments,
  or an ad-hoc ``"pkg.mod:fn"`` call target), plus priority;
* :func:`decompose` — a request broken into the picklable
  :class:`~repro.runner.units.WorkUnit` values the server's worker
  pool executes, one per experiment — ``mirage submit all`` really
  does fan one unit per driver across the workers;
* :func:`unit_to_dict` / :func:`unit_from_dict` — the JSON form of a
  unit the journal records.

The module also hosts the call-unit targets the service dispatches
(:func:`run_experiment_unit`) and a few tiny deterministic targets the
tests and the ``service-roundtrip`` microbenchmark submit instead of
full experiments.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from typing import Any

from repro.runner.cache import encode_payload
from repro.runner.units import WorkUnit, call_unit, execute_unit


@dataclass(frozen=True)
class SubmitRequest:
    """One client submission: experiments to run, or a call target.

    Attributes:
        experiments: registered experiment names (``"all"`` expands to
            every driver); mutually exclusive with *target*.
        target: ad-hoc ``"pkg.module:function"`` call target — the
            escape hatch the tests and the bench probe use.
        args: positional arguments for *target* (JSON-pure).
        kwargs: sorted ``(key, value)`` pairs for *target*.
        quick: trimmed workload sizes, as ``mirage --quick``.
        n_mixes: cap on mixes per configuration, where drivers sweep.
        seed: mix-selection seed, where drivers take one.
        priority: higher runs earlier; ties serve in submission order.
    """

    experiments: tuple[str, ...] = ()
    target: str = ""
    args: tuple = ()
    kwargs: tuple = ()
    quick: bool = False
    n_mixes: int | None = None
    seed: int | None = None
    priority: int = 0

    def describe(self) -> str:
        """A short human label for job listings."""
        if self.target:
            return f"call {self.target}"
        label = " ".join(self.experiments) or "(empty)"
        if self.quick:
            label += " --quick"
        return label


def request_from_dict(data: dict) -> SubmitRequest:
    """Rebuild a :class:`SubmitRequest` from its JSON form."""
    return SubmitRequest(
        experiments=tuple(data.get("experiments", ())),
        target=data.get("target", ""),
        args=tuple(data.get("args", ())),
        kwargs=tuple((k, v) for k, v in data.get("kwargs", ())),
        quick=bool(data.get("quick", False)),
        n_mixes=data.get("n_mixes"),
        seed=data.get("seed"),
        priority=int(data.get("priority", 0)),
    )


def request_to_dict(request: SubmitRequest) -> dict:
    """The JSON-safe form of a :class:`SubmitRequest`."""
    return dataclasses.asdict(request)


# ----------------------------------------------------------------------
# Decomposition into work units
# ----------------------------------------------------------------------
def decompose(request: SubmitRequest) -> list[WorkUnit]:
    """Break a submission into the units the worker pool executes.

    Experiment submissions become one ``"call"`` unit per named
    driver (``"all"`` expands against the registry), each invoking
    :func:`run_experiment_unit` in a worker process; *target*
    submissions become a single call unit.  Raises ``ValueError`` for
    empty or unknown submissions, so a bad request never reaches the
    queue.
    """
    if request.target:
        return [call_unit(request.target, *request.args,
                          **dict(request.kwargs))]
    from repro.experiments import EXPERIMENTS

    names: list[str] = []
    for name in request.experiments:
        if name == "all":
            names.extend(EXPERIMENTS)
        elif name in EXPERIMENTS:
            names.append(name)
        else:
            known = ", ".join([*EXPERIMENTS, "all"])
            raise ValueError(
                f"unknown experiment {name!r} — choose from: {known}")
    if not names:
        raise ValueError("nothing to run: no experiments and no target")
    kwargs: dict[str, Any] = {"quick": request.quick}
    if request.n_mixes is not None:
        kwargs["n_mixes"] = request.n_mixes
    if request.seed is not None:
        kwargs["seed"] = request.seed
    return [
        call_unit("repro.service.protocol:run_experiment_unit",
                  name, **kwargs)
        for name in names
    ]


def run_unit(unit: WorkUnit) -> dict:
    """Execute one unit in a pool worker; returns its result envelope.

    The envelope is what the job stream and the result cache store, so
    a result JSON cannot hold (a set, bytes, an arbitrary object from
    an ad-hoc target) raises here and fails its unit, instead of
    failing later on the server's event loop.
    """
    envelope = encode_payload(execute_unit(unit))
    json.dumps(envelope)
    return envelope


def run_experiment_unit(name: str, *, quick: bool = False,
                        n_mixes: int | None = None,
                        seed: int | None = None) -> dict:
    """Execute one named experiment inside a worker process.

    The service's per-unit :class:`~repro.runner.cache.ResultCache` is
    the dedup layer, so the driver itself runs uncached and serial —
    parallelism comes from the server's pool, not from nested pools.
    """
    from repro.experiments import EXPERIMENTS, ExperimentParams

    params = ExperimentParams(quick=quick, n_mixes=n_mixes, seed=seed,
                              jobs=1)
    return EXPERIMENTS[name].run(params)


def unit_to_dict(unit: WorkUnit) -> dict:
    """A work unit as plain JSON data (for the journal)."""
    return dataclasses.asdict(unit)


def unit_from_dict(data: dict) -> WorkUnit:
    """Rebuild a :class:`~repro.runner.units.WorkUnit` from JSON data.

    Restores the tuple-typed fields JSON flattened to lists; the JSON
    forms are identical either way, so digests computed before and
    after a round-trip agree.
    """
    fields = dict(data)
    fields["benchmarks"] = tuple(fields.get("benchmarks", ()))
    if fields.get("scale") is not None:
        fields["scale"] = tuple(fields["scale"])
    fields["args"] = tuple(fields.get("args", ()))
    fields["kwargs"] = tuple(
        (pair[0], pair[1]) for pair in fields.get("kwargs", ()))
    return WorkUnit(**fields)


# ----------------------------------------------------------------------
# Tiny deterministic call targets (tests, bench probe)
# ----------------------------------------------------------------------
def echo_unit(value: Any = None, tag: str = "") -> dict:
    """Return the inputs — the cheapest possible unit of work."""
    return {"value": value, "tag": tag}


def sleep_unit(seconds: float) -> dict:
    """Sleep then return — lets tests observe a busy worker."""
    time.sleep(seconds)
    return {"slept": seconds}


def flaky_unit(flag_path: str, sleep_s: float = 60.0) -> dict:
    """First execution parks (after dropping a flag file); retries
    return immediately.

    The kill-a-worker test submits this: the flag file signals "a
    worker is now executing me", the test SIGKILLs that worker, and
    the requeued attempt — seeing the flag — completes at once.
    """
    from pathlib import Path

    flag = Path(flag_path)
    if flag.exists():
        return {"attempt": "retry"}
    flag.write_text("started")
    deadline = time.monotonic() + sleep_s
    while time.monotonic() < deadline:
        time.sleep(0.05)
    return {"attempt": "first"}
