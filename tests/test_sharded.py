"""Process-sharded detailed runs must be bit-identical to serial ones.

:mod:`repro.cmp.sharded` fans independent cluster specs over a worker
pool; because every spec runs with a private slice memo and the merge
happens in spec order, the pooled path must produce exactly the
results the serial path does — these tests hold it to that, and cover
the deterministic counter merge.
"""

import dataclasses

from repro.cmp.sharded import (
    ClusterSpec,
    ShardedDetailedBackend,
    merge_counters,
    run_cluster_spec,
)

SPECS = [
    ClusterSpec(benchmarks=(("bzip2", 5, 1 << 34), ("astar", 5, 2 << 34)),
                n_slices=4, slice_instructions=2_000,
                record_kinds=("migration",)),
    ClusterSpec(benchmarks=(("mcf", 7, 1 << 34), ("hmmer", 7, 2 << 34)),
                n_slices=4, slice_instructions=2_000,
                record_kinds=("migration",)),
]


def outcome_key(outcome):
    """Everything a ShardOutcome carries, exactly comparable."""
    r = outcome.result
    return (
        r.app_names, r.ipcs, r.ipc_ooo_alone, r.ooo_share, r.migrations,
        r.sc_bytes_transferred, r.energy_pj,
        sorted(outcome.counters.items()),
        [dataclasses.astuple(e) for e in outcome.records],
    )


class TestBitIdentity:
    def test_pooled_matches_serial(self):
        serial = ShardedDetailedBackend(SPECS, jobs=1).run()
        pooled = ShardedDetailedBackend(SPECS, jobs=2).run()
        assert [outcome_key(s) for s in serial] == \
               [outcome_key(p) for p in pooled]

    def test_outcomes_arrive_in_spec_order(self):
        outcomes = ShardedDetailedBackend(SPECS, jobs=2).run()
        assert [o.result.app_names for o in outcomes] == [
            ["bzip2", "astar"], ["mcf", "hmmer"]]

    def test_single_spec_matches_direct_call(self):
        direct = run_cluster_spec(SPECS[0])
        routed = ShardedDetailedBackend([SPECS[0]], jobs=2).run()[0]
        assert outcome_key(direct) == outcome_key(routed)

    def test_records_ship_back(self):
        outcome = run_cluster_spec(SPECS[0])
        assert all(e.kind == "migration" for e in outcome.records)
        assert outcome.counters.get("migration.count", 0) == \
            len(outcome.records)


class TestMergeCounters:
    def test_sums_across_shards(self):
        outcomes = ShardedDetailedBackend(SPECS, jobs=1).run()
        merged = merge_counters(outcomes)
        for name in ("run.intervals", "migration.count"):
            assert merged[name] == sum(
                o.counters.get(name, 0) for o in outcomes)

