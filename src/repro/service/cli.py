"""The service-facing ``mirage`` subcommands.

``mirage serve`` runs the job server in the foreground; ``mirage
submit`` / ``jobs`` / ``tail`` / ``shutdown`` are thin wrappers around
:class:`~repro.service.client.ServiceClient`, discovering the server
through the ``server.json`` file under the service directory
(``--service-dir`` or ``MIRAGE_SERVICE_DIR``).  Every client command
takes ``--json`` for machine-readable output; ``mirage submit
--porcelain`` prints only the job id, which is what scripts pipe into
``mirage tail``.
"""

from __future__ import annotations

import argparse
import json
import sys


def _serve(argv: list[str]) -> int:
    from repro.config import CacheConfig, ServiceConfig
    from repro.service.server import serve

    parser = argparse.ArgumentParser(
        prog="mirage serve",
        description="Run the experiment job server in the foreground.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1). "
                             "Loopback binds trust their clients; on "
                             "any other bind, mutating endpoints "
                             "(POST /jobs, POST /shutdown) require "
                             "the session token from server.json — "
                             "POST /jobs executes arbitrary call "
                             "targets, so never expose it unguarded")
    parser.add_argument("--port", type=int, default=0,
                        help="bind port (default: 0 = ephemeral)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="worker processes in the pool (default: 2)")
    parser.add_argument("--service-dir", metavar="DIR",
                        help="journal/stream/address directory "
                             "(default: <cache dir>/service)")
    parser.add_argument("--drain-timeout", type=float, default=30.0,
                        metavar="S", help="graceful-shutdown budget "
                        "(default: 30.0)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="result-cache location "
                             "(default: ~/.cache/mirage)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable result-cache reads/writes "
                             "(digests still key coalescing)")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    cache_cfg = CacheConfig(cache_dir=args.cache_dir,
                            use_result_cache=not args.no_cache)
    serve(ServiceConfig(
        host=args.host, port=args.port, workers=args.workers,
        drain_timeout=args.drain_timeout,
        service_dir=args.service_dir, cache=cache_cfg))
    return 0


def _client(args) -> "object":
    from repro.service.client import ServiceClient

    return ServiceClient(service_dir=args.service_dir)


def _submit(argv: list[str]) -> int:
    from repro.service.client import ServiceError, TERMINAL_EVENTS
    from repro.service.protocol import SubmitRequest

    parser = argparse.ArgumentParser(
        prog="mirage submit",
        description="Submit experiments to a running `mirage serve`.")
    parser.add_argument("experiments", nargs="*", metavar="NAME",
                        help="experiment names (or 'all')")
    parser.add_argument("--target", default="", metavar="PKG.MOD:FN",
                        help="ad-hoc call target instead of experiments")
    parser.add_argument("--quick", action="store_true",
                        help="trimmed workload sizes")
    parser.add_argument("--n-mixes", type=int, default=None, metavar="N",
                        help="cap mixes per configuration")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="mix-selection seed")
    parser.add_argument("--priority", type=int, default=0, metavar="N",
                        help="scheduling priority (higher runs first)")
    parser.add_argument("--service-dir", metavar="DIR",
                        help="service directory to discover the server")
    parser.add_argument("--wait", action="store_true",
                        help="tail the job until it finishes")
    parser.add_argument("--porcelain", action="store_true",
                        help="print only the job id (for scripts)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the raw server response as JSON")
    args = parser.parse_args(argv)
    if not args.experiments and not args.target:
        parser.error("name at least one experiment (or --target)")
    request = SubmitRequest(
        experiments=tuple(args.experiments), target=args.target,
        quick=args.quick, n_mixes=args.n_mixes, seed=args.seed,
        priority=args.priority)
    try:
        client = _client(args)
        response = client.submit(request)
    except ServiceError as exc:
        print(f"mirage submit: {exc}", file=sys.stderr)
        return 1
    info = response["job"]
    if args.porcelain:
        print(info["id"])
    elif args.as_json:
        print(json.dumps(response, indent=2))
    else:
        note = " (coalesced with an in-flight job)" \
            if response.get("coalesced") else ""
        print(f"[submit] {info['id']}: {info['experiment']} — "
              f"{info['state']}, {info['units_total']} unit(s){note}")
    if not args.wait:
        return 0
    try:
        record = client.wait(info["id"])
    except ServiceError as exc:
        print(f"mirage submit: {exc}", file=sys.stderr)
        return 1
    if not args.porcelain and not args.as_json:
        print(f"[submit] {info['id']} -> {record['event']}")
    assert record["event"] in TERMINAL_EVENTS
    return 0 if record["event"] == "done" else 1


def _jobs(argv: list[str]) -> int:
    from repro.service.client import ServiceError

    parser = argparse.ArgumentParser(
        prog="mirage jobs",
        description="List jobs on a running `mirage serve`.")
    parser.add_argument("job_id", nargs="?", metavar="JOB",
                        help="show one job instead of the listing")
    parser.add_argument("--service-dir", metavar="DIR",
                        help="service directory to discover the server")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print raw JSON")
    args = parser.parse_args(argv)
    try:
        client = _client(args)
        if args.job_id:
            rows = [client.job(args.job_id)]
        else:
            rows = client.jobs()
    except ServiceError as exc:
        print(f"mirage jobs: {exc}", file=sys.stderr)
        return 1
    if args.as_json:
        print(json.dumps(rows, indent=2))
        return 0
    if not rows:
        print("no jobs")
        return 0
    width = max(len(r["id"]) for r in rows)
    for row in rows:
        extra = f" x{row['submissions']}" if row["submissions"] > 1 else ""
        error = f" — {row['error']}" if row.get("error") else ""
        print(f"{row['id']:<{width}}  {row['state']:<9} "
              f"{row['units_done']}/{row['units_total']:<3} "
              f"{row['experiment']}{extra}{error}")
    return 0


def _tail(argv: list[str]) -> int:
    from repro.service.client import ServiceError

    parser = argparse.ArgumentParser(
        prog="mirage tail",
        description="Stream a job's progress records until it "
                    "finishes.")
    parser.add_argument("job_id", metavar="JOB", help="job id to follow")
    parser.add_argument("--from", dest="start", type=int, default=0,
                        metavar="N", help="skip the first N records")
    parser.add_argument("--service-dir", metavar="DIR",
                        help="service directory to discover the server")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the raw JSONL records")
    args = parser.parse_args(argv)
    try:
        client = _client(args)
        exit_event = ""
        for record in client.tail(args.job_id, start=args.start,
                                  timeout=None):
            if args.as_json:
                print(json.dumps(record, separators=(",", ":")),
                      flush=True)
            else:
                worker = (f" [{record['worker_id']}]"
                          if record.get("worker_id") else "")
                detail = (f" — {record['detail']}"
                          if record.get("detail") else "")
                print(f"{record['job_id']} {record['event']:<9} "
                      f"{record['units_done']}/{record['units_total']} "
                      f"{record['experiment']}{worker}{detail}",
                      flush=True)
            exit_event = record.get("event", exit_event)
    except ServiceError as exc:
        print(f"mirage tail: {exc}", file=sys.stderr)
        return 1
    return 0 if exit_event == "done" else 1


def _shutdown(argv: list[str]) -> int:
    from repro.service.client import ServiceError

    parser = argparse.ArgumentParser(
        prog="mirage shutdown",
        description="Stop a running `mirage serve`.")
    parser.add_argument("--no-drain", action="store_true",
                        help="stop immediately instead of finishing "
                             "accepted work")
    parser.add_argument("--service-dir", metavar="DIR",
                        help="service directory to discover the server")
    args = parser.parse_args(argv)
    try:
        _client(args).shutdown(drain=not args.no_drain)
    except ServiceError as exc:
        print(f"mirage shutdown: {exc}", file=sys.stderr)
        return 1
    print("[shutdown] requested"
          + (" (no drain)" if args.no_drain else " (draining)"))
    return 0


#: Subcommand name → handler, used by the main CLI router.
COMMANDS = {
    "serve": _serve,
    "submit": _submit,
    "jobs": _jobs,
    "tail": _tail,
    "shutdown": _shutdown,
}


def service_command(argv: list[str]) -> int:
    """Route one service subcommand (``argv[0]`` names it)."""
    return COMMANDS[argv[0]](argv[1:])
