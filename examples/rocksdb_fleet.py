#!/usr/bin/env python
"""The paper's motivating scenario, end to end.

A fleet of MiniRocks nodes (one uncoordinated ID generator each) serves
a YCSB workload, run by the same ``WorkloadDriver`` as experiment E11,
while a balancer migrates SST files between nodes and all nodes share
one block cache keyed by (file_id, block). We shrink the ID universe
until collisions happen, and watch them surface as silently corrupted
reads — then switch the generator from Random to Cluster and watch
them (mostly) disappear.

Run:  python examples/rocksdb_fleet.py
"""

from repro.kvstore import Options
from repro.workloads import (
    DriverConfig,
    WorkloadDriver,
    WorkloadSpec,
    cluster_target_factory,
    flush_and_report,
)


def run_fleet(algorithm: str, id_universe: int, seed: int) -> None:
    def options() -> Options:
        return Options(
            memtable_entries=16,
            block_entries=8,
            level0_file_limit=3,
            id_universe=id_universe,
            id_algorithm=algorithm,
            bloom_bits_per_key=0,
        )

    spec = WorkloadSpec(
        workload="a", record_count=800, operation_count=4000, value_size=24
    )
    config = DriverConfig(
        spec=spec, shards=1, seed=seed,
        rebalance_every=250, moves_per_rebalance=2,
    )
    driver = WorkloadDriver(
        cluster_target_factory(6, options, cache_blocks=4096),
        config,
        collect=flush_and_report,
    )
    report = driver.run().shard_results[0].collected
    print(f"  algorithm={algorithm:10s} universe=2^{id_universe.bit_length()-1}")
    print(f"    file IDs minted:        {report.audit.total_ids_assigned}")
    print(f"    duplicate IDs:          {report.audit.collision_count}")
    print(f"    SST migrations:         {report.migrations}")
    print(f"    corrupt block reads:    {report.corrupt_block_reads}")
    print(f"    provably wrong results: {report.corrupt_results}")
    print(f"    cache hit rate:         {report.cache_hit_rate:.3f}")


def main() -> None:
    print("Tiny 13-bit ID universe (collisions at laptop scale):")
    for algorithm in ("random", "cluster", "bins_star"):
        run_fleet(algorithm, 1 << 13, seed=7)

    print(
        "\nSame fleet, 64-bit universe (what production would use) — "
        "nobody collides:"
    )
    for algorithm in ("random", "cluster"):
        run_fleet(algorithm, 1 << 64, seed=7)

    print(
        "\nTakeaway: at equal ID length, Cluster tolerates ~d/n times "
        "more objects than Random before its first collision "
        "(Theorem 1 vs Corollary 3)."
    )


if __name__ == "__main__":
    main()
