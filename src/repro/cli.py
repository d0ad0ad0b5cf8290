"""Command-line entry point: ``mirage <experiment> [options]``.

Runs one experiment driver (or ``all``) and prints its tables.
``mirage list`` shows every registered experiment.  Sweep-style
drivers honour ``--jobs N`` (process fan-out) and cache their per-unit
results under ``~/.cache/mirage/`` (``--cache-dir`` to relocate,
``--no-cache`` to disable); serial, parallel, and cached runs produce
identical tables.

``--trace FILE`` streams the run's telemetry (see
:mod:`repro.telemetry`) to a JSONL file; ``mirage trace FILE``
inspects one afterwards.

The result-cache options travel as one
:class:`repro.config.CacheConfig`.

``mirage bench`` runs the :mod:`repro.bench` microbenchmarks and
writes a schema-versioned ``BENCH_<label>.json``; ``mirage bench
--compare OLD NEW`` diffs two such reports and fails on timing
regressions and on any counter-total mismatch (see
``docs/performance.md``).

``mirage serve`` runs the :mod:`repro.service` job server, and
``mirage submit`` / ``jobs`` / ``tail`` / ``shutdown`` talk to it
(see ``docs/service.md``).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.experiments import EXPERIMENTS, ExperimentParams


def _print_listing() -> None:
    width = max(len(name) for name in EXPERIMENTS)
    fig_width = max(len(e.figure) for e in EXPERIMENTS.values())
    for exp in EXPERIMENTS.values():
        print(f"{exp.name:<{width}}  {exp.figure:<{fig_width}}  "
              f"{exp.title}")
    print(f"{'all':<{width}}  {'':<{fig_width}}  "
          f"run every experiment above")
    print(f"{'trace':<{width}}  {'':<{fig_width}}  "
          f"inspect a JSONL telemetry trace (mirage trace FILE)")
    print(f"{'bench':<{width}}  {'':<{fig_width}}  "
          f"run the perf microbenchmarks (mirage bench --help)")
    print(f"{'serve':<{width}}  {'':<{fig_width}}  "
          f"run the experiment job server (mirage serve --help)")
    print(f"{'submit':<{width}}  {'':<{fig_width}}  "
          f"submit experiments to a server (also: jobs, tail, "
          f"shutdown)")


def _print_backends() -> None:
    """The execution-backend roster (``mirage list --backends``)."""
    from repro.engine.registry import list_backends

    infos = list_backends()
    width = max(len(info.name) for info in infos)
    tier_width = max(len(info.tier) for info in infos)
    for info in infos:
        print(f"{info.name:<{width}}  {info.tier:<{tier_width}}  "
              f"{info.description}")


#: ``mirage trace --kind`` choices: the record kinds with a table view.
TRACE_KINDS = ("interval", "migration", "arbitration", "energy",
               "lifecycle", "run")


def _trace_table(events: list, kind: str, app: str | None,
                 limit: int) -> int:
    """Print one kind's tabular view; returns rows matched pre-limit."""
    from repro.experiments.common import format_table

    rows = [
        e for e in events
        if e.kind == kind and (app is None or getattr(e, "app", None) == app)
    ]
    if not rows:
        return 0
    shown = rows[:limit]
    print(f"\n{kind} records"
          + (f" for {app}" if app else "")
          + (f" (first {len(shown)} of {len(rows)})"
             if len(rows) > len(shown) else f" ({len(shown)})"))
    if kind == "interval":
        print(format_table(
            ["interval", "app", "core", "ipc", "speedup", "dSC-MPKI"],
            [[e.interval, e.app, "OoO" if e.on_ooo else "InO",
              e.ipc, e.speedup, e.delta_sc_mpki] for e in shown],
        ))
    elif kind == "migration":
        print(format_table(
            ["interval", "app", "dir", "sc_bytes", "charged",
             "l1_dirty", "l1_lines"],
            [[e.interval, e.app, "->OoO" if e.to_ooo else "->InO",
              e.sc_bytes, e.charged_cycles, e.l1_flush_dirty,
              e.l1_flush_lines] for e in shown],
        ))
    elif kind == "arbitration":
        print(format_table(
            ["interval", "chosen", "slots"],
            [[e.interval, ",".join(e.chosen) or "(gated)", e.slots]
             for e in shown],
        ))
    elif kind == "energy":
        print(format_table(
            ["interval", "app", "core", "energy_pj"],
            [[e.interval, e.app, e.core, e.energy_pj] for e in shown],
        ))
    elif kind == "lifecycle":
        print(format_table(
            ["interval", "app", "event", "benchmark", "cluster",
             "resident", "residency"],
            [[e.interval, e.app, e.event, e.benchmark, e.cluster,
              e.resident, e.residency_intervals] for e in shown],
        ))
    return len(rows)


def _residency_summary(events: list, app: str | None) -> None:
    """Per-app arrival/departure/residency from lifecycle records."""
    from repro.experiments.common import format_table

    apps: dict[str, dict] = {}
    for e in events:
        if e.kind != "lifecycle" or (app is not None and e.app != app):
            continue
        row = apps.setdefault(
            e.app, {"arrived": None, "departed": None,
                    "residency": None, "completions": 0})
        if e.event == "arrive":
            row["arrived"] = e.interval
        else:
            row["departed"] = e.interval
            row["residency"] = e.residency_intervals
            row["completions"] = e.completions
    if not apps:
        return
    print(f"\nper-app residency ({len(apps)} apps)")
    print(format_table(
        ["app", "arrived", "departed", "residency", "completions"],
        [
            [name,
             "?" if row["arrived"] is None else row["arrived"],
             "-" if row["departed"] is None else row["departed"],
             "-" if row["residency"] is None else row["residency"],
             row["completions"]]
            for name, row in sorted(apps.items())
        ],
    ))


def _trace_command(path: str, *, app: str | None, limit: int,
                   kind: str | None = None) -> int:
    """Summarize and tabulate a JSONL telemetry trace."""
    from repro.telemetry import read_trace

    trace_path = Path(path)
    if not trace_path.exists():
        print(f"mirage trace: no such file: {path}", file=sys.stderr)
        return 1
    try:
        events = read_trace(trace_path)
    except ValueError as exc:
        print(f"mirage trace: {exc}", file=sys.stderr)
        return 1
    by_kind: dict[str, int] = {}
    for event in events:
        by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
    counts = ", ".join(f"{n} {k}" for k, n in sorted(by_kind.items()))
    print(f"{path}: {len(events)} records ({counts or 'empty'})")

    # Per-app migration counts: the first thing one checks when
    # debugging backend parity, so it never needs JSONL spelunking.
    mig_by_app: dict[str, int] = {}
    for event in events:
        if event.kind == "migration" and (app is None or event.app == app):
            mig_by_app[event.app] = mig_by_app.get(event.app, 0) + 1
    if mig_by_app:
        per_app = ", ".join(
            f"{name}={n}" for name, n in sorted(mig_by_app.items()))
        print(f"migrations per app: {per_app}")

    if kind in (None, "run"):
        for event in events:
            if event.kind == "run":
                print(f"\nrun: {event.config} under {event.arbitrator} — "
                      f"{event.intervals} intervals, "
                      f"{event.total_cycles:.0f} cycles")
                counters = event.counters
                for name in sorted(counters):
                    print(f"  {name} = {counters[name]}")

    shown_any = 0
    for table_kind in TRACE_KINDS:
        if table_kind == "run":
            continue
        if kind is None and table_kind != "interval":
            continue            # default view: the interval table only
        if kind is not None and table_kind != kind:
            continue
        shown_any += _trace_table(events, table_kind, app, limit)
    if kind == "lifecycle":
        _residency_summary(events, app)
    if not shown_any and (app is not None or kind not in (None, "run")):
        desc = kind or "interval"
        print(f"\nno {desc} records"
              + (f" for app {app!r}" if app else ""))
    return 0


def _bench_command(argv: list[str]) -> int:
    """The ``mirage bench`` subcommand (its own option namespace)."""
    from repro.bench import (
        compare_reports,
        DEFAULT_THRESHOLD,
        format_report,
        names,
        read_report,
        run_benchmarks,
        write_report,
    )

    parser = argparse.ArgumentParser(
        prog="mirage bench",
        description=(
            "Measure the simulator's hot paths with the repro.bench "
            "microbenchmarks, or compare two saved reports."
        ),
    )
    parser.add_argument(
        "names", nargs="*",
        help="benchmarks to run (default: all; see --list)")
    parser.add_argument(
        "--list", action="store_true",
        help="print every registered microbenchmark and exit")
    parser.add_argument(
        "--quick", action="store_true",
        help="trimmed workload sizes (CI smoke mode)")
    parser.add_argument(
        "--repeat", type=int, default=3, metavar="N",
        help="timed repetitions per benchmark (default: 3)")
    parser.add_argument(
        "--warmup", type=int, default=1, metavar="N",
        help="untimed warm-up runs per benchmark (default: 1)")
    parser.add_argument(
        "--label", default="local",
        help="report label; the default output file is "
             "BENCH_<label>.json (default: local)")
    parser.add_argument(
        "--output", metavar="FILE",
        help="report path (default: BENCH_<label>.json)")
    parser.add_argument(
        "--compare", nargs=2, metavar=("OLD", "NEW"),
        help="diff two saved reports instead of measuring")
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        metavar="FRAC",
        help="tolerated slowdown fraction for --compare "
             f"(default: {DEFAULT_THRESHOLD})")
    parser.add_argument(
        "--warn-only", action="store_true",
        help="with --compare: report timing regressions but exit 0 "
             "(a counter-total mismatch still exits 1)")
    args = parser.parse_args(argv)

    if args.list:
        from repro.bench import BENCHMARKS

        width = max(len(n) for n in BENCHMARKS)
        for bench in BENCHMARKS.values():
            print(f"{bench.name:<{width}}  [{bench.tier:<8}]  "
                  f"{bench.description}")
        return 0

    if args.compare:
        old_path, new_path = args.compare
        try:
            comparison = compare_reports(
                read_report(old_path), read_report(new_path),
                threshold=args.threshold)
        except (OSError, ValueError) as exc:
            print(f"mirage bench: {exc}", file=sys.stderr)
            return 2
        print(comparison.summary())
        # Counters are deterministic, so --warn-only never excuses a
        # mismatch: it relaxes the timing gate only.
        if comparison.counter_mismatches or (
                not comparison.ok and not args.warn_only):
            return 1
        return 0

    unknown = [n for n in args.names if n not in names()]
    if unknown:
        parser.error(
            f"unknown benchmark(s) {', '.join(unknown)} — "
            f"choose from: {', '.join(names())}")
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    report = run_benchmarks(
        args.names or None, repeats=args.repeat, warmup=args.warmup,
        quick=args.quick, label=args.label, verbose=True)
    out = Path(args.output) if args.output else Path(
        f"BENCH_{args.label}.json")
    write_report(report, out)
    print(f"\n{format_report(report)}")
    print(f"[bench] report -> {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["bench"]:
        # `bench` owns its option namespace (repeat counts, compare
        # paths); route before the experiment parser sees them.
        return _bench_command(argv[1:])
    if argv[:1] and argv[0] in ("serve", "submit", "jobs", "tail",
                                "shutdown"):
        # Service subcommands own their option namespaces too.
        from repro.service.cli import service_command

        return service_command(argv)
    parser = argparse.ArgumentParser(
        prog="mirage",
        description=(
            "Mirage Cores (MICRO 2017) reproduction: run one of the "
            "paper's experiments and print its tables."
        ),
    )
    parser.add_argument(
        "experiment", nargs="?",
        help="experiment name (see 'mirage list'), 'all', or 'trace'",
    )
    parser.add_argument(
        "path", nargs="?",
        help="trace file to inspect (only with 'mirage trace')",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="print each experiment's name, paper figure, and title",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller workloads for a fast smoke run",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for sweep experiments (default: 1)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="result-cache location (default: ~/.cache/mirage)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the on-disk result cache",
    )
    parser.add_argument(
        "--export", metavar="DIR",
        help="also write each experiment's raw result as JSON in DIR",
    )
    parser.add_argument(
        "--trace", metavar="FILE",
        help="append the run's telemetry records to FILE (JSONL)",
    )
    parser.add_argument(
        "--app", metavar="NAME",
        help="with 'mirage trace': only this application's intervals",
    )
    parser.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="with 'mirage trace': interval rows to print (default: 20)",
    )
    parser.add_argument(
        "--kind", choices=TRACE_KINDS, metavar="KIND",
        help="with 'mirage trace': only this record kind "
             f"({', '.join(TRACE_KINDS)})",
    )
    parser.add_argument(
        "--shape", metavar="SHAPE",
        help="with 'mirage scenario': traffic shape "
             "(steady, bursty, diurnal, mixed)",
    )
    parser.add_argument(
        "--clusters", type=int, metavar="N",
        help="with 'mirage scenario': number of Mirage clusters "
             "behind the global scheduler",
    )
    parser.add_argument(
        "--policy", metavar="NAME",
        help="with 'mirage scenario': compare only this placement "
             "policy (round-robin, least-loaded, sc-mpki)",
    )
    parser.add_argument(
        "--backends", nargs="?", const="*", metavar="NAMES",
        help="with 'mirage backend-matrix': comma-separated backend "
             "names to cross-validate (bare flag = all registered); "
             "with 'mirage list': print the backend roster instead",
    )
    args = parser.parse_args(argv)

    # One CacheConfig carries the result-cache options from here down.
    from repro.config import CacheConfig

    cache_cfg = CacheConfig(
        cache_dir=args.cache_dir,
        use_result_cache=not args.no_cache,
    )

    if args.list or args.experiment == "list":
        if args.backends is not None:
            _print_backends()
        else:
            _print_listing()
        return 0
    if args.experiment is None:
        parser.error("an experiment name (or 'all' / 'list') is required")
    if args.experiment == "trace":
        if args.path is None:
            parser.error("'mirage trace' needs a trace file path")
        return _trace_command(args.path, app=args.app, limit=args.limit,
                              kind=args.kind)
    if args.kind is not None:
        parser.error("--kind only makes sense with 'mirage trace'")
    if args.path is not None:
        parser.error("a file path only makes sense with 'mirage trace'")
    if args.experiment != "all" and args.experiment not in EXPERIMENTS:
        known = ", ".join([*EXPERIMENTS, "all"])
        parser.error(
            f"unknown experiment {args.experiment!r} — "
            f"choose from: {known} (or run 'mirage list')")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    backend_overrides = {}
    if args.backends is not None:
        if args.experiment != "backend-matrix":
            parser.error("--backends only makes sense with 'mirage "
                         "backend-matrix' (or 'mirage list --backends')")
        if args.backends != "*":
            # Resolve each name now so a typo fails with the registry
            # roster before any work unit is scheduled.
            from repro.engine.registry import get_backend

            chosen = tuple(
                part.strip() for part in args.backends.split(",")
                if part.strip())
            if not chosen:
                parser.error("--backends got an empty selection")
            for backend_name in chosen:
                try:
                    get_backend(backend_name)
                except ValueError as exc:
                    parser.error(str(exc))
            backend_overrides["backends"] = chosen

    scenario_overrides = {}
    if (args.shape is not None or args.clusters is not None
            or args.policy is not None):
        if args.experiment != "scenario":
            parser.error("--shape/--clusters/--policy only make sense "
                         "with 'mirage scenario'")
        from repro.cluster.scheduler import POLICIES
        from repro.workloads.scenario import SHAPES

        if args.shape is not None:
            if args.shape not in SHAPES:
                parser.error(f"unknown shape {args.shape!r} — choose "
                             f"from: {', '.join(SHAPES)}")
            scenario_overrides["shape"] = args.shape
        if args.clusters is not None:
            if args.clusters < 1:
                parser.error("--clusters must be >= 1")
            scenario_overrides["n_clusters"] = args.clusters
        if args.policy is not None:
            if args.policy not in POLICIES:
                parser.error(f"unknown policy {args.policy!r} — choose "
                             f"from: {', '.join(POLICIES)}")
            scenario_overrides["policies"] = (args.policy,)

    if args.trace:
        # One file per invocation: truncate now, every experiment run
        # below appends to it in order.
        trace_path = Path(args.trace)
        if trace_path.parent != Path("."):
            trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text("")

    names = list(EXPERIMENTS) if args.experiment == "all" else [
        args.experiment]
    for name in names:
        exp = EXPERIMENTS[name]
        params = ExperimentParams(
            quick=args.quick,
            jobs=args.jobs,
            cache=cache_cfg,
            trace=args.trace,
        )
        print(f"=== {name} ===")
        start = time.time()
        overrides = (scenario_overrides if name == "scenario"
                     else backend_overrides if name == "backend-matrix"
                     else {})
        result = exp.run(params, **overrides)
        exp.print_table(result)
        if args.export:
            from repro.report import to_json

            out_dir = Path(args.export)
            out_dir.mkdir(parents=True, exist_ok=True)
            to_json(result, out_dir / f"{name}.json")
            print(f"[exported {out_dir / (name + '.json')}]")
        if exp.last_runner is not None and exp.last_runner.stats.total_units:
            print(f"[runner] {exp.last_runner.stats.summary()}")
            slowest = exp.last_runner.stats.slowest_summary()
            if slowest:
                print(f"[runner] slowest units: {slowest}")
        print(f"--- {name} done in {time.time() - start:.1f}s ---\n")
    if args.trace:
        with open(args.trace) as handle:
            n_records = sum(1 for line in handle if line.strip())
        print(f"[trace] {n_records} records -> {args.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
