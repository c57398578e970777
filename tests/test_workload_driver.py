"""Tests for the workload driver: histogram, determinism, targets."""

import random

import pytest

from repro.errors import ClusterUnavailableError, ConfigurationError
from repro.kvstore.db import MiniRocks
from repro.kvstore.options import Options
from repro.workloads.driver import (
    FAILED_OP_OUTCOME,
    ChaosEvent,
    DriverConfig,
    LatencyHistogram,
    WorkloadDriver,
    cluster_target_factory,
    execute_op,
    flush_and_report,
    store_target_factory,
    validate_chaos_schedule,
)
from repro.workloads.ycsb import WorkloadSpec, encode_key


def small_options():
    return Options(
        memtable_entries=32, block_entries=8, id_universe=1 << 32
    )


def tiny_universe_options():
    return Options(
        memtable_entries=16,
        block_entries=8,
        level0_file_limit=3,
        id_universe=1 << 13,
        id_algorithm="random",
        bloom_bits_per_key=0,
    )


class TestLatencyHistogram:
    def test_small_values_are_exact(self):
        hist = LatencyHistogram()
        for value in [0, 1, 5, 15]:
            hist.record(value)
        assert hist.count == 4
        assert hist.total_ns == 21
        assert hist.max_ns == 15
        assert hist.percentile(1.0) == 15

    def test_percentile_relative_error_is_bounded(self):
        hist = LatencyHistogram()
        rng = random.Random(42)
        values = sorted(rng.randrange(100, 10_000_000) for _ in range(5000))
        for value in values:
            hist.record(value)
        for q in (0.5, 0.95, 0.99):
            true = values[int(q * len(values)) - 1]
            measured = hist.percentile(q)
            assert abs(measured - true) / true < 0.10, (q, true, measured)

    def test_merge_equals_combined_stream(self):
        rng = random.Random(7)
        values = [rng.randrange(1, 1_000_000) for _ in range(2000)]
        combined = LatencyHistogram()
        left, right = LatencyHistogram(), LatencyHistogram()
        for index, value in enumerate(values):
            combined.record(value)
            (left if index % 2 == 0 else right).record(value)
        left.merge(right)
        assert left.count == combined.count
        assert left.total_ns == combined.total_ns
        assert left.max_ns == combined.max_ns
        for q in (0.5, 0.9, 0.99):
            assert left.percentile(q) == combined.percentile(q)

    def test_empty_and_validation(self):
        hist = LatencyHistogram()
        assert hist.percentile(0.99) == 0
        assert hist.mean_ns == 0.0
        with pytest.raises(ConfigurationError):
            hist.percentile(1.5)

    def test_summary_units(self):
        hist = LatencyHistogram()
        hist.record(2_000)
        summary = hist.summary()
        assert summary["count"] == 1
        assert summary["mean_us"] == 2.0


class TestDriverDeterminism:
    """The PR's acceptance gate: results pure in (seed, shard)."""

    @pytest.mark.parametrize("workload", ["a", "d", "e", "f"])
    def test_workers_1_vs_4_bit_identical(self, workload):
        spec = WorkloadSpec(
            workload=workload,
            record_count=120,
            operation_count=300,
            max_scan_length=10,
        )
        results = []
        for workers in (1, 4):
            config = DriverConfig(
                spec=spec,
                shards=4,
                workers=workers,
                warmup_operations=40,
                seed=31337,
            )
            results.append(
                WorkloadDriver(
                    store_target_factory(small_options), config
                ).run()
            )
        serial, sharded = results
        assert serial.fingerprint == sharded.fingerprint
        assert [s.fingerprint for s in serial.shard_results] == [
            s.fingerprint for s in sharded.shard_results
        ]
        assert serial.op_counts == sharded.op_counts
        assert serial.operations == sharded.operations

    def test_same_seed_repeats_different_seed_differs(self):
        spec = WorkloadSpec(workload="b", record_count=80, operation_count=200)

        def run(seed):
            return WorkloadDriver(
                store_target_factory(small_options),
                DriverConfig(spec=spec, shards=2, seed=seed),
            ).run()

        assert run(5).fingerprint == run(5).fingerprint
        assert run(5).fingerprint != run(6).fingerprint

    def test_shards_have_distinct_streams(self):
        spec = WorkloadSpec(workload="a", record_count=80, operation_count=200)
        result = WorkloadDriver(
            store_target_factory(small_options),
            DriverConfig(spec=spec, shards=3, seed=1),
        ).run()
        fingerprints = [s.fingerprint for s in result.shard_results]
        assert len(set(fingerprints)) == 3


class TestDriverExecution:
    def test_measured_op_accounting(self):
        spec = WorkloadSpec(workload="a", record_count=60, operation_count=150)
        config = DriverConfig(
            spec=spec, shards=2, warmup_operations=30, seed=2
        )
        result = WorkloadDriver(
            store_target_factory(small_options), config
        ).run()
        assert result.operations == 2 * 150  # warmup excluded
        assert result.histogram.count == 2 * 150
        assert sum(result.op_counts.values()) == 2 * 150
        assert result.ops_per_second > 0
        for shard in result.shard_results:
            assert shard.operations == 150

    def test_throughput_covers_the_measured_phase_only(self):
        # A big load relative to the measured phase must not depress
        # ops/s: throughput is measured ops over the measured span.
        spec = WorkloadSpec(workload="c", record_count=5000, operation_count=200)
        result = WorkloadDriver(
            store_target_factory(small_options),
            DriverConfig(spec=spec, shards=1, seed=8),
        ).run()
        assert 0 < result.measured_elapsed_seconds < result.elapsed_seconds
        shard = result.shard_results[0]
        assert shard.measure_ended >= shard.measure_started
        assert result.ops_per_second == pytest.approx(
            result.operations / result.measured_elapsed_seconds
        )
        # The load phase alone dominates the run here; measured ops/s
        # must come out far above ops/whole-run-wall-clock.
        assert result.ops_per_second > result.operations / result.elapsed_seconds

    def test_rmw_counts_as_one_logical_op(self):
        spec = WorkloadSpec(workload="f", record_count=40, operation_count=200)
        result = WorkloadDriver(
            store_target_factory(small_options),
            DriverConfig(spec=spec, shards=1, seed=3),
        ).run()
        assert sum(result.op_counts.values()) == 200
        assert result.op_counts.get("rmw", 0) > 0

    def test_workload_e_uses_the_scan_path(self):
        spec = WorkloadSpec(
            workload="e", record_count=200, operation_count=150,
            max_scan_length=8,
        )
        result = WorkloadDriver(
            store_target_factory(small_options),
            DriverConfig(spec=spec, shards=1, seed=4),
            collect=lambda db: db.stats.scans,
        ).run()
        assert result.op_counts.get("scan", 0) > 100
        assert result.shard_results[0].collected >= result.op_counts["scan"]

    def test_collect_callback_receives_target(self):
        spec = WorkloadSpec(workload="c", record_count=30, operation_count=50)
        result = WorkloadDriver(
            store_target_factory(small_options),
            DriverConfig(spec=spec, shards=2, seed=5),
            collect=lambda db: db.name,
        ).run()
        assert [s.collected for s in result.shard_results] == [
            "shard0", "shard1",
        ]

    def test_cluster_target_with_rebalance(self):
        spec = WorkloadSpec(workload="a", record_count=150, operation_count=400)
        config = DriverConfig(
            spec=spec, shards=2, seed=6, rebalance_every=100,
        )
        result = WorkloadDriver(
            cluster_target_factory(3, tiny_universe_options, cache_blocks=512),
            config,
            collect=flush_and_report,
        ).run()
        assert result.operations == 2 * 400
        for shard in result.shard_results:
            report = shard.collected
            assert report.operations >= 400
            assert report.audit.total_ids_assigned > 0

    def test_to_dict_schema(self):
        spec = WorkloadSpec(workload="b", record_count=30, operation_count=60)
        result = WorkloadDriver(
            store_target_factory(small_options),
            DriverConfig(spec=spec, shards=1, seed=7),
        ).run()
        payload = result.to_dict()
        for key in (
            "workload", "operations", "ops_per_second", "p50_us",
            "p95_us", "p99_us", "fingerprint", "op_counts",
        ):
            assert key in payload

    def test_config_validation(self):
        spec = WorkloadSpec()
        with pytest.raises(ConfigurationError):
            DriverConfig(spec=spec, shards=0)
        with pytest.raises(ConfigurationError):
            DriverConfig(spec=spec, workers=0)
        with pytest.raises(ConfigurationError):
            DriverConfig(spec=spec, warmup_operations=-1)
        with pytest.raises(ConfigurationError):
            DriverConfig(spec=spec, rebalance_every=0)


class TestChaosScheduleValidation:
    """The ``uuidp kv`` pre-flight: impossible schedules fail before
    the load phase, not 90% into a run."""

    def kill(self, at_op, node=0):
        return ChaosEvent(at_op=at_op, action="kill", node=node)

    def recover(self, at_op, node=0):
        return ChaosEvent(at_op=at_op, action="recover", node=node)

    def test_valid_schedules_pass(self):
        validate_chaos_schedule([])
        validate_chaos_schedule([self.kill(100)])
        validate_chaos_schedule([self.kill(100), self.recover(200)])
        validate_chaos_schedule(
            [self.kill(100), self.recover(200), self.kill(300)]
        )
        # Independent nodes don't interfere.
        validate_chaos_schedule(
            [self.kill(100, node=0), self.kill(100, node=1),
             self.recover(150, node=1)]
        )
        # Order given doesn't matter; validation walks tick order.
        validate_chaos_schedule([self.recover(200), self.kill(100)])

    def test_recover_before_kill_rejected(self):
        with pytest.raises(ConfigurationError, match="recover"):
            validate_chaos_schedule([self.recover(100)])
        with pytest.raises(ConfigurationError, match="no earlier kill"):
            validate_chaos_schedule([self.kill(300), self.recover(200)])

    def test_recover_at_kill_tick_rejected(self):
        # Same tick would kill-then-recover within one tick and
        # silently no-op the outage.
        with pytest.raises(ConfigurationError, match="at or before"):
            validate_chaos_schedule([self.kill(300), self.recover(300)])

    def test_double_kill_rejected(self):
        with pytest.raises(ConfigurationError, match="already dead"):
            validate_chaos_schedule([self.kill(100), self.kill(200)])
        # ... unless a recover separates them.
        validate_chaos_schedule(
            [self.kill(100), self.recover(150), self.kill(200)]
        )

    def test_other_nodes_unaffected_by_a_kill(self):
        with pytest.raises(ConfigurationError):
            validate_chaos_schedule(
                [self.kill(100, node=0), self.recover(200, node=1)]
            )


class _FlakyStore:
    """A target whose gets fail with unavailability after a cutoff —
    for the driver's failed-op accounting."""

    def __init__(self, fail_after):
        self.fail_after = fail_after
        self.gets = 0
        self.state = {}

    def execute(self, op, key, value):
        if op == "get":
            self.gets += 1
            if self.gets > self.fail_after:
                raise ClusterUnavailableError("quorum lost")
            return (
                b"\x01" + self.state[key] if key in self.state else b"\x00"
            )
        if op in ("put", "rmw"):
            self.state[key] = value
            return b"\x02"
        raise AssertionError(f"unexpected op {op}")


class TestFailedOpAccounting:
    """Unavailability during the measured phase is an outcome, not a
    crash: runs complete, counters fill, fingerprints stay pure."""

    def _run(self, fail_after):
        spec = WorkloadSpec(workload="a", record_count=20, operation_count=60)
        return WorkloadDriver(
            lambda shard, seed: _FlakyStore(fail_after),
            DriverConfig(spec=spec, shards=1, seed=9),
        ).run()

    def test_errors_counted_and_deterministic(self):
        result = self._run(fail_after=5)
        assert result.operations == 60
        assert result.op_errors.get("get", 0) > 0
        assert result.timeouts == 0  # unavailability, not timeouts
        assert sum(result.op_counts.values()) == 60
        payload = result.to_dict()
        assert payload["op_errors"] == result.op_errors
        assert payload["timeouts"] == 0
        # Same seed, same failure pattern -> same fingerprint; the
        # failure marker is a fixed byte, not wall-clock dependent.
        assert result.fingerprint == self._run(5).fingerprint
        assert result.fingerprint != self._run(10**9).fingerprint

    def test_healthy_runs_report_no_errors(self):
        result = self._run(fail_after=10**9)
        assert result.op_errors == {}
        assert result.timeouts == 0
        assert FAILED_OP_OUTCOME not in (b"\x00", b"\x01", b"\x02")

    def test_load_phase_failures_still_propagate(self):
        # The load phase seeds ground truth; a target that cannot even
        # load is a broken setup, not a measurable outcome.
        class BrokenStore:
            def execute(self, op, key, value):
                raise ClusterUnavailableError("down")

        spec = WorkloadSpec(workload="a", record_count=10, operation_count=10)
        with pytest.raises(ClusterUnavailableError):
            WorkloadDriver(
                lambda shard, seed: BrokenStore(),
                DriverConfig(spec=spec, shards=1, seed=1),
            ).run()


class TestScanSupport:
    """The kvstore/cluster surface the driver leans on."""

    def test_minirocks_open_ended_scan(self):
        db = MiniRocks(small_options(), rng=random.Random(1))
        for index in range(50):
            db.put(encode_key(index), b"v%d" % index)
        db.flush()
        rows = db.scan(encode_key(10), None, limit=5)
        assert [key for key, _ in rows] == [
            encode_key(10 + i) for i in range(5)
        ]
        assert db.stats.scans == 1
        # Unbounded tail without a limit still works.
        assert len(db.scan(encode_key(45))) == 5
        # A limit below 1 returns nothing on both scan paths.
        for limit in (0, -1):
            assert db.scan(encode_key(10), None, limit=limit) == []
            assert db.scan(encode_key(10), encode_key(40), limit=limit) == []

    def test_seeked_open_ended_scan_matches_bounded_scan(self):
        # A limit scan and an end-bounded scan cut the same stream
        # from `start`; they must agree from any offset, across
        # flushed/compacted/updated/deleted state.
        db = MiniRocks(
            Options(memtable_entries=16, block_entries=4, id_universe=1 << 32),
            rng=random.Random(15),
        )
        for index in range(400):
            db.put(encode_key(index), b"old")
        for index in range(0, 400, 7):
            db.delete(encode_key(index))
        for index in range(0, 400, 11):
            db.put(encode_key(index), b"new")
        far_end = encode_key(10**9)
        for offset in (0, 1, 123, 250, 399, 500):
            start = encode_key(offset)
            assert (
                db.scan(start, None, limit=25)
                == db.scan(start, far_end)[:25]
            )

    def test_cluster_scatter_gather_scan(self):
        from repro.distributed.cluster import ClusterSimulator

        sim = ClusterSimulator(3, small_options, cache_blocks=256, seed=9)
        for index in range(60):
            sim.put(encode_key(index), b"x%d" % index)
        rows = sim.scan(encode_key(20), None, limit=7)
        assert [key for key, _ in rows] == [
            encode_key(20 + i) for i in range(7)
        ]

    def test_cluster_scan_dedups_migrated_copies(self):
        # After SST migrations a key can surface on several nodes;
        # the scan must return one row per key, preferring the routed
        # owner's (get-consistent) view over stale migrated copies.
        from repro.distributed.cluster import ClusterSimulator

        def churn_options():
            return Options(
                memtable_entries=8,
                block_entries=4,
                level0_file_limit=2,
                id_universe=1 << 32,
            )

        sim = ClusterSimulator(3, churn_options, cache_blocks=256, seed=11)
        for index in range(200):
            sim.put(encode_key(index), b"old")
        sim.flush_all()
        sim.rebalance(max_moves=6)
        for index in range(200):
            sim.put(encode_key(index), b"new")
        rows = sim.scan(encode_key(0), None)
        keys = [key for key, _ in rows]
        assert len(keys) == len(set(keys)) == 200
        assert all(value == b"new" for _, value in rows)
        limited = sim.scan(encode_key(0), None, limit=50)
        assert [key for key, _ in limited] == [
            encode_key(i) for i in range(50)
        ]

    def test_tombstones_do_not_consume_the_scan_limit(self):
        # All deleted keys sort before the live ones: a limited scan
        # must still return `limit` live rows, on both store and
        # cluster paths.
        from repro.distributed.cluster import ClusterSimulator

        db = MiniRocks(small_options(), rng=random.Random(13))
        for index in range(20):
            db.put(encode_key(index), b"v")
        db.flush()
        for index in range(10):
            db.delete(encode_key(index))
        rows = db.scan(encode_key(0), None, limit=10)
        assert [key for key, _ in rows] == [
            encode_key(10 + i) for i in range(10)
        ]

        sim = ClusterSimulator(2, small_options, cache_blocks=256, seed=13)
        for index in range(20):
            sim.put(encode_key(index), b"v")
        for index in range(10):
            sim.delete(encode_key(index))
        rows = sim.scan(encode_key(0), None, limit=10)
        assert [key for key, _ in rows] == [
            encode_key(10 + i) for i in range(10)
        ]

    def test_cluster_scan_does_not_resurrect_deleted_keys(self):
        # A deletion on the owner must beat a stale migrated copy: the
        # owner's tombstone has to survive into the coordinator merge.
        from repro.distributed.cluster import ClusterSimulator

        def churn_options():
            return Options(
                memtable_entries=8,
                block_entries=4,
                level0_file_limit=2,
                id_universe=1 << 32,
            )

        sim = ClusterSimulator(3, churn_options, cache_blocks=256, seed=12)
        for index in range(120):
            sim.put(encode_key(index), b"v")
        sim.flush_all()
        sim.rebalance(max_moves=6)
        deleted = [encode_key(i) for i in range(0, 120, 3)]
        for key in deleted:
            sim.delete(key)
        rows = dict(sim.scan(encode_key(0), None))
        for key in deleted:
            assert key not in rows, f"deleted key {key!r} resurrected"
            assert sim.get(key) is None
        assert len(rows) == 120 - len(deleted)

    def test_limited_cluster_scan_is_a_prefix_of_the_full_scan(self):
        # Wherever the limit cuts the merged node streams, a limited
        # scatter-gather scan must return exactly the first `limit`
        # rows of the unlimited (fully resolved) scan — no resurrected
        # deletes, no stale values, no gaps.
        from repro.distributed.cluster import ClusterSimulator

        def churn_options():
            return Options(
                memtable_entries=8,
                block_entries=4,
                level0_file_limit=2,
                id_universe=1 << 32,
            )

        sim = ClusterSimulator(3, churn_options, cache_blocks=256, seed=14)
        for index in range(150):
            sim.put(encode_key(index), b"old")
        sim.flush_all()
        sim.rebalance(max_moves=8)
        for index in range(0, 150, 3):
            sim.delete(encode_key(index))
        for index in range(0, 150, 5):
            sim.put(encode_key(index), b"new")
        sim.rebalance(max_moves=8)
        full = sim.scan(encode_key(0), None)
        keys = [key for key, _ in full]
        assert len(keys) == len(set(keys))  # one winner per key
        for limit in (1, 2, 5, 17, 40, len(full), len(full) + 10):
            assert sim.scan(encode_key(0), None, limit=limit) == full[:limit]

    def test_limited_scan_skips_stale_copies_of_deleted_keys(self):
        # Adversarial layout: every exportable file is migrated off
        # node0, then all node0-owned keys are deleted — node1's rows
        # lead with stale live copies that node0's tombstones kill in
        # the merge. A limited scan must neither return deleted keys
        # nor come up short.
        from repro.distributed.cluster import ClusterSimulator

        def churn_options():
            return Options(
                memtable_entries=4,
                block_entries=4,
                level0_file_limit=2,
                id_universe=1 << 32,
            )

        sim = ClusterSimulator(2, churn_options, cache_blocks=256, seed=1)
        for index in range(60):
            sim.put(encode_key(index), b"old")
        sim.flush_all()
        for node in sim.nodes:
            node.db.compact_all()
        donor, receiver = sim.nodes
        for level, sst in list(donor.exportable_files()):
            receiver.import_file(level, donor.export_file(level, sst))
        deleted = [
            encode_key(i)
            for i in range(60)
            if sim.preference_nodes(encode_key(i))[0] is donor
        ]
        assert deleted  # the layout actually has donor-owned keys
        for key in deleted:
            sim.delete(key)

        full = sim.scan(encode_key(0), None)
        assert all(key not in dict(full) for key in deleted)
        limited = sim.scan(encode_key(0), None, limit=3)
        assert limited == full[:3]

    def test_execute_op_runs_rmw_and_scan_on_a_cluster(self):
        from repro.distributed.cluster import ClusterSimulator

        sim = ClusterSimulator(2, small_options, cache_blocks=256, seed=10)
        for index in range(20):
            sim.put(encode_key(index), b"seed")
        assert execute_op(sim, "rmw", encode_key(3), b"updated") == (
            b"\x01seed"
        )
        scanned = execute_op(sim, "scan", encode_key(0), b"4")
        assert scanned[:4] == (4).to_bytes(4, "little")
        assert sim.get(encode_key(3)) == b"updated"
