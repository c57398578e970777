"""KV serving bench: ops/s and tail latency per YCSB workload A–F.

Runs the :class:`~repro.workloads.driver.WorkloadDriver` for every
workload mix against both targets — a single MiniRocks store and a
ClusterSimulator fleet — and records throughput plus p50/p95/p99 op
latency in the benchmark JSON (``extra_info``), so the CI bench-smoke
artifact carries the full workload × target serving matrix alongside
the Monte-Carlo engines artifact. Since PR 6 the matrix gains
``target="network"`` rows: the same driver pointed at a real
``uuidp serve`` asyncio RPC server over loopback, so the in-process
vs network serving overhead (syscalls + framing + socket hops) is a
measured, regression-gated column, not folklore.

``REPRO_BENCH_SCALE`` scales record/op counts (the CI smoke lane sets
it well below 1); ``REPRO_BENCH_KV_SHARDS``/``REPRO_BENCH_KV_WORKERS``
override the shard/executor counts.
"""

import os

import pytest

from repro.kvstore.options import Options
from repro.workloads.driver import (
    DriverConfig,
    WorkloadDriver,
    cluster_target_factory,
    flush_and_report,
    store_target_factory,
)
from repro.workloads.ycsb import WorkloadSpec

BENCH_SEED = 20230414
WORKLOADS = list("abcdef")


def _scaled(base: int, floor: int) -> int:
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1"))
    return max(floor, int(base * scale))


def _spec(workload: str) -> WorkloadSpec:
    return WorkloadSpec(
        workload=workload,
        record_count=_scaled(2000, 200),
        operation_count=_scaled(8000, 500),
        value_size=32,
        max_scan_length=50,
    )


def _config(workload: str) -> DriverConfig:
    return DriverConfig(
        spec=_spec(workload),
        shards=int(os.environ.get("REPRO_BENCH_KV_SHARDS", "2")),
        workers=int(os.environ.get("REPRO_BENCH_KV_WORKERS", "1")),
        warmup_operations=_scaled(500, 50),
        seed=BENCH_SEED,
    )


def _options() -> Options:
    return Options(memtable_entries=128, block_entries=16)


def _record(benchmark, result) -> None:
    payload = result.to_dict()
    for key in (
        "ops_per_second", "p50_us", "p95_us", "p99_us", "mean_us",
        "operations", "fingerprint",
    ):
        benchmark.extra_info[key] = payload[key]
    print(
        f"\n{payload['workload'].upper()}: "
        f"{payload['ops_per_second']:,.0f} ops/s, "
        f"p50 {payload['p50_us']:.1f} us, p99 {payload['p99_us']:.1f} us "
        f"({payload['operations']} ops)"
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_kv_workload_store(benchmark, workload):
    benchmark.extra_info["workload"] = workload
    benchmark.extra_info["target"] = "store"
    driver = WorkloadDriver(
        store_target_factory(_options), _config(workload)
    )
    result = benchmark.pedantic(driver.run, rounds=1, iterations=1)
    assert result.operations == (
        driver.config.shards * driver.config.spec.operation_count
    )
    _record(benchmark, result)


@pytest.mark.parametrize("write_mode", ["nosync", "batch", "sync"])
def test_kv_workload_store_durable(benchmark, write_mode):
    """Workload A through the durable group-commit WAL, per WriteMode.

    The three rows price the durability spectrum on the update-heavy
    mix: ``nosync`` (fsync only at flush) ≈ the in-memory row,
    ``batch`` pays one adaptive group fsync per write group, ``sync``
    pays one per write. ``fsync_count`` rides along in ``extra_info``
    so a group-commit regression (syncing per-record under batch)
    shows up as a counted fact, not just a latency smell.
    """
    from repro.kvstore.wal import WriteMode

    benchmark.extra_info["workload"] = "a"
    benchmark.extra_info["target"] = "store"
    benchmark.extra_info["write_mode"] = write_mode

    def durable_options() -> Options:
        return Options(
            memtable_entries=128,
            block_entries=16,
            write_mode=WriteMode(write_mode),
        )

    driver = WorkloadDriver(
        store_target_factory(durable_options, durable=True),
        _config("a"),
        collect=lambda store: store.stats,
    )
    result = benchmark.pedantic(driver.run, rounds=1, iterations=1)
    assert result.operations == (
        driver.config.shards * driver.config.spec.operation_count
    )
    stats = [shard.collected for shard in result.shard_results]
    fsyncs = sum(s.fsync_count for s in stats)
    benchmark.extra_info["fsync_count"] = fsyncs
    benchmark.extra_info["wal_bytes"] = sum(s.wal_bytes for s in stats)
    if write_mode == "sync":
        # Every put fsyncs (plus rotations); the floor is the put count.
        assert fsyncs >= result.op_counts.get("put", 0)
    elif write_mode == "batch":
        assert 0 < fsyncs < result.op_counts.get("put", 1)
    _record(benchmark, result)


@pytest.mark.parametrize("rf", [1, 3], ids=["rf1", "rf3"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_kv_workload_cluster(benchmark, workload, rf):
    """Cluster serving at RF=1 vs RF=3: the replication cost columns.

    The artifact gains an ops/s + p99 row per (workload, RF) pair, so
    the quorum write/read amplification of replication is measured —
    and gated — alongside the single-copy numbers.
    """
    benchmark.extra_info["workload"] = workload
    benchmark.extra_info["target"] = "cluster"
    benchmark.extra_info["replication_factor"] = rf
    driver = WorkloadDriver(
        cluster_target_factory(4, _options, replication_factor=rf),
        _config(workload),
        collect=flush_and_report,
    )
    result = benchmark.pedantic(driver.run, rounds=1, iterations=1)
    assert result.operations == (
        driver.config.shards * driver.config.spec.operation_count
    )
    report = result.shard_results[0].collected
    benchmark.extra_info["cache_hit_rate"] = report.cache_hit_rate
    _record(benchmark, result)


@pytest.mark.parametrize("workload", ["a", "c"])
def test_kv_workload_network(benchmark, workload):
    """Network serving over loopback: the RPC-boundary cost columns.

    Workloads A (update-heavy) and C (read-only) bracket the mix
    space; comparing their rows against the ``target="store"`` rows
    above prices the serving stack itself — same driver, same seeds,
    same (bit-identical) op streams, plus a real socket per shard.
    """
    from repro.distributed.rpc import (
        ServerThread,
        network_flush_and_report,
        network_target_factory,
    )

    benchmark.extra_info["workload"] = workload
    benchmark.extra_info["target"] = "network"
    with ServerThread(store_target_factory(_options)) as handle:
        host, port = handle.address

        def run():
            return WorkloadDriver(
                network_target_factory(host, port),
                _config(workload),
                collect=network_flush_and_report,
            ).run()

        result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.operations == (
        result.config.shards * result.config.spec.operation_count
    )
    assert not result.op_errors, result.op_errors
    _record(benchmark, result)


def _p99_us(latencies_s) -> float:
    """99th-percentile of a latency sample, in microseconds."""
    ordered = sorted(latencies_s)
    index = min(len(ordered) - 1, int(len(ordered) * 0.99))
    return ordered[index] * 1e6


def _readpath_store(record_count: int):
    """A deterministic in-memory store for read-path microbenches."""
    import random

    from repro.kvstore.db import MiniRocks

    db = MiniRocks(_options(), rng=random.Random(BENCH_SEED))
    keys = [f"user{i:08d}".encode() for i in range(record_count)]
    value = b"x" * 32
    for key in keys:
        db.put(key, value)
    return db, keys


@pytest.mark.parametrize("outcome", ["hit", "miss"])
def test_kv_point_get(benchmark, outcome):
    """Point-get microbench: the zero-decode block read path.

    ``hit`` probes uniformly over present keys (bloom pass → offset
    bisect → single-record slice); ``miss`` probes absent keys, which
    the serialized bloom filters should reject without touching any
    block — the miss row is dominated by hash + probe cost.
    """
    import random
    from time import perf_counter

    benchmark.extra_info["target"] = "readpath"
    benchmark.extra_info["workload"] = f"point_get_{outcome}"
    db, keys = _readpath_store(_scaled(2000, 200))
    lookups = _scaled(8000, 500)
    rng = random.Random(BENCH_SEED + 1)
    if outcome == "hit":
        probes = [keys[rng.randrange(len(keys))] for _ in range(lookups)]
        assert all(db.get(key) is not None for key in probes[:50])
    else:
        probes = [
            f"absent{rng.randrange(1 << 30):010d}".encode()
            for _ in range(lookups)
        ]
        assert all(db.get(key) is None for key in probes[:50])

    def run():
        get = db.get
        latencies = []
        record = latencies.append
        start = perf_counter()
        for key in probes:
            t0 = perf_counter()
            get(key)
            record(perf_counter() - t0)
        return len(probes) / (perf_counter() - start), latencies

    ops, latencies = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["ops_per_second"] = ops
    benchmark.extra_info["p99_us"] = _p99_us(latencies)
    benchmark.extra_info["bloom_negative"] = db.stats.bloom_negative
    print(f"\nPOINT_GET[{outcome}]: {ops:,.0f} ops/s")


def test_kv_reopen_format(benchmark):
    """Reopen cost of a durable store, in entries loaded per second.

    Reopening restores each SST's serialized bloom and live-entry count
    and validates its block offset tables; no record is decoded and no
    key is re-hashed.
    """
    import random
    from time import perf_counter

    from repro.kvstore.db import MiniRocks
    from repro.kvstore.storage import SimulatedStorage

    benchmark.extra_info["target"] = "reopen"
    benchmark.extra_info["workload"] = "v2"

    storage = SimulatedStorage(seed=BENCH_SEED)
    db = MiniRocks.open(
        storage,
        options=_options(),
        rng=random.Random(BENCH_SEED),
    )
    records = _scaled(2000, 200)
    for i in range(records):
        db.put(f"user{i:08d}".encode(), b"x" * 32)
    db.flush()
    live_entries = db.manifest.total_entries()
    assert live_entries > 0

    def run():
        latencies = []
        for _ in range(5):
            start = perf_counter()
            reopened = MiniRocks.open(
                storage,
                options=_options(),
                rng=random.Random(BENCH_SEED + 1),
            )
            latencies.append(perf_counter() - start)
            assert reopened.manifest.total_entries() == live_entries
        return live_entries / min(latencies), latencies

    ops, latencies = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["ops_per_second"] = ops
    # Tail latency is per full reopen (manifest + every live SST).
    benchmark.extra_info["p99_us"] = _p99_us(latencies)
    benchmark.extra_info["live_entries"] = live_entries
    print(f"\nREOPEN[v2]: {ops:,.0f} entries/s")


def test_kv_driver_worker_determinism(benchmark):
    """The acceptance gate: workers=1 and workers=4 agree bit-for-bit."""
    spec = _spec("f")
    base = dict(spec=spec, shards=4, warmup_operations=100, seed=BENCH_SEED)

    def serial():
        return WorkloadDriver(
            store_target_factory(_options),
            DriverConfig(workers=1, **base),
        ).run()

    def sharded():
        return WorkloadDriver(
            store_target_factory(_options),
            DriverConfig(workers=4, **base),
        ).run()

    serial_result = serial()
    sharded_result = benchmark.pedantic(sharded, rounds=1, iterations=1)
    assert serial_result.fingerprint == sharded_result.fingerprint
    assert serial_result.op_counts == sharded_result.op_counts
    benchmark.extra_info["fingerprint"] = serial_result.fingerprint
