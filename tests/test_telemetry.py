"""Tests for the telemetry subsystem: schema, sinks, counters, and the
migration-cost accounting both tiers must report identically."""

import json

import pytest

from repro.arbiter import SCMPKIArbitrator
from repro.cmp.detailed import DetailedMirageCluster
from repro.experiments.common import make_system
from repro.telemetry import (
    ArbitrationRecord,
    Counters,
    EnergyRecord,
    IntervalRecord,
    JSONLSink,
    MemorySink,
    MigrationRecord,
    PhaseProfiler,
    RunRecord,
    Telemetry,
    dump_record,
    from_record,
    read_trace,
    to_record,
)
from repro.workloads import WorkloadMix, make_benchmark

MIX = WorkloadMix(name="tele", category="Random",
                  benchmarks=("bzip2", "astar", "hmmer", "gamess"))

#: ``MigrationCostModel.cost_summary()`` key -> ``MigrationRecord`` field.
COMPONENTS = {
    "drain": "drain_cycles",
    "l1_warmup": "l1_warmup_cycles",
    "sc_transfer": "sc_transfer_cycles",
    "bus_contention": "bus_contention_cycles",
}


def record_total(record):
    """One migration record's four cost components, summed."""
    return sum(getattr(record, field) for field in COMPONENTS.values())


def component_sums(records):
    """Per-component totals over *records*, added in record order from
    0.0 as the cost model adds them, so the floats compare exactly."""
    return {key: sum((getattr(r, field) for r in records), 0.0)
            for key, field in COMPONENTS.items()}


def assert_moves_alternate(records):
    """Every application starts on a consumer, so its moves alternate
    producer-bound, consumer-bound, ..."""
    last: dict[str, bool] = {}
    for record in records:
        assert record.to_ooo != last.get(record.app, False)
        last[record.app] = record.to_ooo

EXAMPLES = [
    IntervalRecord(interval=3, app="bzip2", on_ooo=True, ipc=1.25,
                   speedup=0.97, sc_mpki_ino=4.5, delta_sc_mpki=0.1,
                   phase_id=2),
    ArbitrationRecord(interval=0, chosen=["bzip2"], slots=1),
    MigrationRecord(interval=7, app="astar", to_ooo=False, sc_bytes=4096,
                    drain_cycles=10, l1_warmup_cycles=160,
                    sc_transfer_cycles=10, bus_contention_cycles=3,
                    charged_cycles=183.0),
    EnergyRecord(interval=2, app="hmmer", core="oino", energy_pj=812.5),
    RunRecord(config="4:1-Mirage", arbitrator="SC-MPKI", intervals=50,
              total_cycles=1e6, counters={"migration.count": 4}),
]


class TestEventSchema:
    @pytest.mark.parametrize("event", EXAMPLES,
                             ids=[e.kind for e in EXAMPLES])
    def test_round_trip(self, event):
        record = to_record(event)
        assert record["kind"] == event.kind
        assert from_record(record) == event

    @pytest.mark.parametrize("event", EXAMPLES,
                             ids=[e.kind for e in EXAMPLES])
    def test_json_round_trip(self, event):
        line = dump_record(event)
        assert from_record(json.loads(line)) == event

    def test_kind_is_first_key(self):
        # JSONL lines lead with the discriminator, so traces are
        # greppable by kind without parsing.
        for event in EXAMPLES:
            assert next(iter(to_record(event))) == "kind"

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="warp"):
            from_record({"kind": "warp", "x": 1})

    def test_float_exactness(self):
        ugly = 0.1 + 0.2  # not representable; repr round-trips exactly
        event = EnergyRecord(interval=0, app="a", core="ino",
                             energy_pj=ugly)
        back = from_record(json.loads(dump_record(event)))
        assert back.energy_pj == ugly


class TestSinks:
    def test_memory_sink_filters_kinds(self):
        telemetry = Telemetry()
        only_runs = telemetry.attach(MemorySink(kinds={"run"}))
        everything = telemetry.attach(MemorySink())
        for event in EXAMPLES:
            telemetry.emit(event)
        assert [e.kind for e in only_runs.events] == ["run"]
        assert everything.events == EXAMPLES
        assert everything.records("migration") == [EXAMPLES[2]]

    def test_wants_reflects_attached_sinks(self):
        telemetry = Telemetry()
        assert not telemetry.wants("interval")
        sink = telemetry.attach(MemorySink(kinds={"interval"}))
        assert telemetry.wants("interval")
        assert not telemetry.wants("energy")
        telemetry.detach(sink)
        assert not telemetry.wants("interval")

    def test_jsonl_sink_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JSONLSink(path)
        for event in EXAMPLES:
            sink.emit(event)
        sink.close()
        assert sink.written == len(EXAMPLES)
        assert read_trace(path) == EXAMPLES

    def test_jsonl_append_mode(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for chunk in (EXAMPLES[:2], EXAMPLES[2:]):
            sink = JSONLSink(path, mode="a")
            for event in chunk:
                sink.emit(event)
            sink.close()
        assert read_trace(path) == EXAMPLES

    def test_jsonl_lazy_creation(self, tmp_path):
        path = tmp_path / "never.jsonl"
        JSONLSink(path).close()
        assert not path.exists()


class TestCountersAndProfiler:
    def test_bump_and_merge(self):
        counters = Counters()
        counters.bump("a")
        counters.bump("a", 4)
        counters.merge({"a": 1, "b": 2.5})
        assert counters == {"a": 6, "b": 2.5}

    def test_profiler(self):
        profiler = PhaseProfiler()
        profiler.add("execution", 0.25)
        profiler.add("execution", 0.25)
        with profiler.time("arbitration"):
            pass
        assert profiler.calls["execution"] == 2
        assert profiler.seconds["execution"] == 0.5
        assert profiler.total_seconds >= 0.5
        assert "execution" in profiler.summary()


class TestIntervalTierTelemetry:
    def test_history_equals_interval_sink(self):
        # The legacy record_history path and an explicit interval sink
        # observe the same stream of records.
        telemetry, trace = Telemetry.recording(kinds={"interval"})
        system = make_system(MIX, "SC-MPKI", record_history=True,
                             telemetry=telemetry)
        system.run(max_intervals=60)
        assert system.history == trace.events
        assert len(system.history) == 60 * len(MIX)

    def test_migration_records_match_cost_model(self):
        # The SC bus-transfer bytes and cycle charges in the telemetry
        # must be exactly what MigrationCostModel priced: one record
        # per priced move, components summing to its totals, and each
        # charge the interval tier's rule (capped at 90 % of an
        # interval) applied to the record's own components.
        telemetry, trace = Telemetry.recording(kinds={"migration"})
        system = make_system(MIX, "SC-MPKI", telemetry=telemetry)
        system.run(max_intervals=120)
        records = trace.records("migration")
        assert len(records) == system.migration.total_migrations > 0
        assert component_sums(records) == system.migration.cost_summary()
        assert_moves_alternate(records)
        interval = system.config.scale.interval_cycles
        for record in records:
            assert record.charged_cycles == min(
                interval * 0.9, record_total(record))
        assert telemetry.counters["migration.count"] == len(records)
        assert telemetry.counters["migration.sc_bytes"] == sum(
            r.sc_bytes for r in records)

    def test_run_record_carries_counters(self):
        telemetry, trace = Telemetry.recording(kinds={"run"})
        system = make_system(MIX, "SC-MPKI", telemetry=telemetry)
        result = system.run(max_intervals=50)
        (run,) = trace.records("run")
        assert run.config == system.config.name
        assert run.arbitrator == "SC-MPKI"
        assert run.intervals == result.intervals
        assert run.counters["migration.count"] == result.migrations
        assert run.counters["run.intervals"] == result.intervals

    def test_untraced_run_emits_nothing(self):
        system = make_system(MIX, "SC-MPKI")
        system.run(max_intervals=50)
        assert system.history == []
        # Counters still accumulate (they are cheap totals).
        assert system.telemetry.counters["run.intervals"] == 50


class TestDetailedTierTelemetry:
    @pytest.fixture(scope="class")
    def cluster_and_trace(self):
        benches = [
            make_benchmark(name, seed=9, base_addr=(i + 1) << 34)
            for i, name in enumerate(("bzip2", "astar"))
        ]
        telemetry, trace = Telemetry.recording()
        cluster = DetailedMirageCluster(
            benches, SCMPKIArbitrator(), slice_instructions=3_000,
            telemetry=telemetry)
        result = cluster.run(n_slices=12)
        return cluster, trace, result

    def test_migration_records_match_cost_model(self, cluster_and_trace):
        # Same exactness requirement as the interval tier; the
        # detailed tier bills the whole price.
        cluster, trace, result = cluster_and_trace
        records = trace.records("migration")
        assert (len(records) == cluster.migration.total_migrations
                == result.migrations > 0)
        assert (component_sums(records)
                == cluster.migration.cost_summary())
        assert_moves_alternate(records)
        for record in records:
            assert record.charged_cycles == float(record_total(record))

    def test_sc_bytes_sum_matches_cluster_total(self, cluster_and_trace):
        cluster, trace, _result = cluster_and_trace
        records = trace.records("migration")
        assert (sum(r.sc_bytes for r in records)
                == cluster.sc_bytes_transferred > 0)

    def test_l1_flush_charges_observed(self, cluster_and_trace):
        cluster, trace, _result = cluster_and_trace
        records = trace.records("migration")
        # Early migrations can flush cold caches, but once the cores
        # have run, lines must actually be dropped.
        assert any(r.l1_flush_lines > 0 for r in records)
        assert all(r.l1_flush_dirty >= 0 for r in records)
        counters = cluster.telemetry.counters
        assert counters["migration.l1_flush_lines"] == sum(
            r.l1_flush_lines for r in records)

    def test_interval_records_per_slice(self, cluster_and_trace):
        cluster, trace, _result = cluster_and_trace
        intervals = trace.records("interval")
        assert len(intervals) == 12 * len(cluster.apps)
        assert {r.app for r in intervals} == {"bzip2", "astar"}
        assert all(r.phase_id == -1 for r in intervals)

    def test_core_counters_merged(self, cluster_and_trace):
        cluster, _trace, _result = cluster_and_trace
        counters = cluster.telemetry.counters
        assert counters["ooo.instructions"] > 0
        assert counters["ino.instructions"] > 0
        # Per-app Schedule Cache stats land under sc.<app>.*
        assert counters["sc.bzip2.lookups"] > 0

    def test_run_record(self, cluster_and_trace):
        _cluster, trace, _result = cluster_and_trace
        (run,) = trace.records("run")
        assert run.arbitrator == "SC-MPKI"
        assert run.intervals == 12
        assert run.counters["ooo.instructions"] > 0
