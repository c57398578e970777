"""Integration tests for nodes, migration, and the cluster simulator."""

import importlib
import os
import random
import subprocess
import sys

import pytest

import repro
from repro.distributed.cluster import ClusterSimulator
from repro.distributed.migration import (
    audit_id_uniqueness,
    migrate_coldest_to_warmest,
)
from repro.distributed.node import Node
from repro.errors import ConfigurationError
from repro.kvstore.blockcache import BlockCache
from repro.kvstore.options import Options
from repro.workloads.driver import execute_op


def small_options(**overrides):
    defaults = dict(
        memtable_entries=4,
        block_entries=2,
        level0_file_limit=2,
        id_universe=1 << 32,
        id_algorithm="cluster",
        bloom_bits_per_key=0,
    )
    defaults.update(overrides)
    return Options(**defaults)


def loaded_node(name, seed, keys=60):
    node = Node(
        name, small_options(), BlockCache(256), rng=random.Random(seed)
    )
    for i in range(keys):
        node.db.put(f"{name}-k{i:03d}".encode(), b"v")
    node.db.flush()
    return node


class TestNode:
    def test_exportable_excludes_l0(self):
        node = loaded_node("n1", 1)
        for level, _sst in node.exportable_files():
            assert level >= 1

    def test_export_import_cycle(self):
        donor = loaded_node("donor", 1)
        receiver = loaded_node("receiver", 2, keys=4)
        exportable = donor.exportable_files()
        assert exportable, "donor should have compacted files"
        level, sst = exportable[0]
        donor.export_file(level, sst)
        receiver.import_file(level, sst)
        assert sst in [f for _, f in receiver.db.manifest.live_files()]
        # The data is now served by the receiver.
        key = sst.min_key
        assert receiver.db.get(key) is not None

    def test_load_metric(self):
        heavy = loaded_node("h", 1, keys=80)
        light = loaded_node("l", 2, keys=8)
        assert heavy.load() > light.load()


class TestMigrationPolicies:
    def test_coldest_to_warmest_reduces_imbalance(self):
        cache = BlockCache(256)
        heavy = Node("heavy", small_options(), cache, random.Random(1))
        light = Node("light", small_options(), cache, random.Random(2))
        for i in range(100):
            heavy.db.put(f"k{i:03d}".encode(), b"v" * 4)
        heavy.db.flush()
        before = heavy.load() - light.load()
        events = migrate_coldest_to_warmest(
            [heavy, light], random.Random(3), max_moves=3
        )
        assert events
        assert heavy.load() - light.load() < before
        for event in events:
            assert event.source == "heavy"
            assert event.destination == "light"

    def test_needs_two_nodes(self):
        with pytest.raises(ConfigurationError):
            migrate_coldest_to_warmest(
                [loaded_node("solo", 1)], random.Random(0)
            )


class TestAudit:
    def test_no_duplicates_with_big_universe(self):
        nodes = [loaded_node(f"n{i}", i) for i in range(3)]
        audit = audit_id_uniqueness(nodes)
        assert not audit.collided
        assert audit.collision_count == 0
        assert audit.distinct_ids == audit.total_ids_assigned

    def test_duplicates_with_tiny_universe(self):
        nodes = [
            Node(
                f"n{i}",
                small_options(id_universe=16, id_algorithm="random"),
                BlockCache(64),
                rng=random.Random(i),
            )
            for i in range(3)
        ]
        for node in nodes:
            for i in range(12):
                node.db.put(f"k{i}".encode(), b"v")
            node.db.flush()
        audit = audit_id_uniqueness(nodes)
        assert audit.collided
        assert audit.collision_count >= 1


class TestClusterSimulator:
    def test_routing_is_consistent(self):
        sim = ClusterSimulator(3, small_options, seed=1)
        sim.put(b"key", b"value")
        assert sim.get(b"key") == b"value"

    def test_workload_and_report(self):
        sim = ClusterSimulator(3, small_options, seed=1)
        operations = [
            ("put", f"k{i:03d}".encode(), b"v") for i in range(60)
        ] + [("get", f"k{i:03d}".encode(), b"") for i in range(60)] + [
            ("delete", b"k000", b"")
        ]
        for index, (op, key, value) in enumerate(operations, start=1):
            execute_op(sim, op, key, value)
            if index % 30 == 0:
                sim.rebalance(max_moves=2)
        report = sim.report()
        assert report.operations == 121
        assert report.audit.total_ids_assigned > 0
        assert not report.corrupted  # 2^32 universe: no collisions

    def test_unknown_op_rejected(self):
        sim = ClusterSimulator(2, small_options, seed=1)
        with pytest.raises(ConfigurationError):
            execute_op(sim, "frobnicate", b"k", b"")

    def test_rebalance_records_events(self):
        sim = ClusterSimulator(2, small_options, seed=1)
        # Load node-asymmetric data (routing by hash is roughly even, so
        # pile everything through one node directly).
        for i in range(80):
            sim.nodes[0].db.put(f"k{i:03d}".encode(), b"v")
        sim.nodes[0].db.flush()
        events = sim.rebalance(max_moves=2)
        assert len(sim.migration_events) == len(events)

    def test_shared_cache_across_nodes(self):
        sim = ClusterSimulator(3, small_options, seed=1)
        assert all(node.db.cache is sim.cache for node in sim.nodes)

    def test_needs_one_node(self):
        with pytest.raises(ConfigurationError):
            ClusterSimulator(0, small_options)

    def test_end_to_end_corruption_with_tiny_universe(self):
        """The paper's failure mode, reproduced deterministically-ish."""

        def tiny():
            return small_options(id_universe=64, id_algorithm="random")

        corrupted_any = False
        for seed in range(6):
            sim = ClusterSimulator(4, tiny, cache_blocks=512, seed=seed)
            rng = random.Random(seed)
            for i in range(240):
                sim.put(f"k{rng.randrange(60):03d}".encode(), b"v")
            sim.flush_all()
            for i in range(240):
                sim.get(f"k{rng.randrange(60):03d}".encode())
            if sim.report().corrupted:
                corrupted_any = True
                break
        assert corrupted_any, "64-ID universe must collide within 6 seeds"


class TestLeanImports:
    def test_cluster_import_leaves_engines_and_rpc_unloaded(self):
        # The serving stack imports the cluster; the Monte-Carlo
        # engines, the process pool and the RPC layer must not ride along.
        heavy = (
            "repro.simulation.batch",
            "repro.simulation.vectorized",
            "repro.distributed.rpc",
            "asyncio",
            "multiprocessing",
        )
        code = (
            "import sys, repro.distributed.cluster\n"
            f"print(*[name for name in {heavy!r} if name in sys.modules])"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout.split() == []

    @pytest.mark.parametrize(
        "package",
        [
            "repro",
            "repro.simulation",
            "repro.distributed",
            "repro.core",
            "repro.kvstore",
            "repro.adversary",
            "repro.analysis",
            "repro.workloads",
            "repro.idspace",
            "repro.experiments",
            "repro.devtools",
        ],
    )
    def test_every_reexport_resolves(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None, name
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(module, "no_such_name")
