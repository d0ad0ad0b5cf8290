"""The worker process: one TCP connection, one unit at a time.

Run as ``python -m repro.service.worker --connect HOST:PORT --id ID
--token TOKEN`` (which is exactly how the server spawns its fleet).
The worker dials the server's single port, introduces itself with a
``hello`` line, then loops: read a ``run`` message, execute its
:class:`~repro.runner.units.WorkUnit` via
:func:`~repro.runner.units.execute_unit`, and send back a ``result``
envelope (or an ``error``).  A daemon thread sends ``heartbeat``
lines on a fixed interval so the server's monitor can tell a busy
worker from a dead one; a ``stop`` message (or EOF) ends the session.

Workers are intentionally dumb: no queueing, no caching, no retry —
all of that lives in the server, which makes killing a worker at any
moment safe (its in-flight unit is simply requeued).  Units execute
inline, in the worker process itself.
"""

from __future__ import annotations

import argparse
import os
import socket
import threading

from repro.runner.cache import encode_payload
from repro.runner.units import execute_unit
from repro.service.protocol import (
    dump_message,
    load_message,
    unit_from_dict,
)

def run_worker(host: str, port: int, worker_id: str, token: str,
               heartbeat_interval: float = 1.0) -> int:
    """Connect to a server and execute units until told to stop.

    Returns the number of units completed.  A *heartbeat_interval*
    of zero (or less) disables heartbeats — only useful for tests
    that want to get evicted.
    """
    sock = socket.create_connection((host, port))
    reader = sock.makefile("r", encoding="utf-8", newline="\n")
    send_lock = threading.Lock()

    def send(message: dict) -> None:
        data = (dump_message(message) + "\n").encode()
        with send_lock:
            sock.sendall(data)

    send({"type": "hello", "worker_id": worker_id, "token": token,
          "pid": os.getpid()})
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(heartbeat_interval):
            try:
                send({"type": "heartbeat"})
            except OSError:
                return

    if heartbeat_interval > 0:
        threading.Thread(target=beat, daemon=True,
                         name=f"heartbeat-{worker_id}").start()
    units_done = 0
    try:
        for line in reader:
            line = line.strip()
            if not line:
                continue
            try:
                message = load_message(line)
            except ValueError:
                continue
            mtype = message.get("type")
            if mtype == "stop":
                break
            if mtype != "run":
                continue
            digest = str(message.get("digest", ""))
            try:
                unit = unit_from_dict(message["unit"])
                result = execute_unit(unit)
                send({"type": "result", "digest": digest,
                      "payload": encode_payload(result)})
                units_done += 1
            except OSError:
                break
            except Exception as exc:  # noqa: BLE001 — reported upstream
                try:
                    send({"type": "error", "digest": digest,
                          "message": f"{type(exc).__name__}: {exc}"})
                except OSError:
                    break
    finally:
        stop.set()
        try:
            sock.close()
        except OSError:
            pass
    return units_done


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro.service.worker``)."""
    parser = argparse.ArgumentParser(
        prog="repro.service.worker",
        description="Experiment-service worker process.")
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="server address to dial")
    parser.add_argument("--id", required=True, dest="worker_id",
                        help="worker id to register under")
    parser.add_argument("--token", required=True,
                        help="server session token")
    parser.add_argument("--heartbeat", type=float, default=1.0,
                        help="heartbeat interval in seconds "
                             "(<= 0 disables)")
    options = parser.parse_args(argv)
    host, _, port = options.connect.rpartition(":")
    try:
        run_worker(host or "127.0.0.1", int(port), options.worker_id,
                   options.token,
                   heartbeat_interval=options.heartbeat)
    except (ConnectionError, OSError) as exc:
        print(f"[worker {options.worker_id}] connection lost: {exc}",
              flush=True)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
