"""Replication, quorum R/W, fault injection, and ring-routing tests.

Covers the PR-5 serving layer: consistent-hash ring stability, quorum
reads over divergent replicas, last-write-wins + read-repair
convergence, hinted-handoff replay on recovery, scatter-gather scans
through node death, and the chaos-schedule determinism contract of the
workload driver (the ``chaos``-marked classes run in CI's dedicated
fault-injection lane).
"""

import itertools
import random

import pytest

from repro.distributed import ring as ring_module
from repro.distributed.cluster import (
    ClusterSimulator,
    decode_envelope,
    encode_envelope,
)
from repro.distributed.ring import HashRing
from repro.errors import (
    ClusterUnavailableError,
    ConfigurationError,
    KVStoreError,
)
from repro.kvstore.options import Options
from repro.workloads.driver import (
    ChaosEvent,
    DriverConfig,
    WorkloadDriver,
    cluster_target_factory,
    flush_and_report,
    store_target_factory,
)
from repro.workloads.ycsb import WorkloadSpec, load_phase, run_phase


def small_options(**overrides):
    defaults = dict(
        memtable_entries=8,
        block_entries=4,
        level0_file_limit=2,
        id_universe=1 << 32,
        id_algorithm="cluster",
        bloom_bits_per_key=0,
    )
    defaults.update(overrides)
    return Options(**defaults)


def key_with_primary(sim, node, start=0):
    """First ``k{i}`` key whose ring primary is ``node``."""
    for index in itertools.count(start):
        key = f"k{index:04d}".encode()
        if sim.preference_nodes(key)[0] is node:
            return key
    raise AssertionError("unreachable")


def clockwise_walk(ring, point, rf):
    """Reference routing: walk ``ring``'s points clockwise from the
    first one strictly after ``point`` (wrapping) and keep the first
    ``rf`` distinct owners."""
    points, owners = ring._points, ring._owners
    start = next((i for i, p in enumerate(points) if p > point), 0)
    seen = []
    for step in range(len(points)):
        owner = owners[(start + step) % len(points)]
        if owner not in seen:
            seen.append(owner)
    return tuple(seen[:rf])


def e11_options():
    """E11-sized stores: a run flushes, compacts and migrates files."""
    return Options(memtable_entries=16, block_entries=8, level0_file_limit=3)


def driver_fingerprint(target_factory, workload, **config):
    """The outcome fingerprint of one seeded 500-record, 1,200-op
    shard of ``workload`` on the target ``target_factory`` builds."""
    spec = WorkloadSpec(
        workload=workload, record_count=500, operation_count=1200
    )
    return WorkloadDriver(
        target_factory, DriverConfig(spec=spec, shards=1, seed=0, **config)
    ).run().fingerprint


class TestHashRing:
    @pytest.mark.parametrize("members", range(1, 7))
    def test_table_matches_clockwise_walk(self, members, monkeypatch):
        """Keys hashing just before, and exactly onto, every ring point
        route like the clockwise walk over a ring built fresh from the
        same members, for every rf, before and after a join and a
        leave."""
        vnodes = 3
        ring = HashRing([f"n{i}" for i in range(members)], vnodes=vnodes)

        def check():
            fresh = HashRing(ring.members, vnodes=vnodes)
            probes = [0, 2**64 - 1]
            for point in fresh._points:
                probes += [point - 1, point]
            with monkeypatch.context() as patch:
                # A key's bytes are its hash, so a probe can land anywhere.
                patch.setattr(
                    ring_module, "_hash64", lambda key: int.from_bytes(key, "big")
                )
                for probe in probes:
                    key = probe.to_bytes(8, "big")
                    for rf in range(1, len(ring) + 1):
                        assert ring.preference_list(key, rf) == clockwise_walk(
                            fresh, probe, rf
                        )

        check()
        ring.add_node("n_new")
        check()
        ring.remove_node("n0")
        check()
        with pytest.raises(ConfigurationError):
            ring.preference_list(b"k", members + 1)  # its table was built

    def test_preference_list_distinct_members(self):
        ring = HashRing([f"n{i}" for i in range(5)])
        for key in (b"a", b"b", b"hello", b"user42"):
            prefs = ring.preference_list(key, 3)
            assert len(prefs) == len(set(prefs)) == 3
            assert prefs[0] == ring.primary(key)

    def test_routing_is_deterministic_and_order_insensitive(self):
        names = [f"n{i}" for i in range(6)]
        forward = HashRing(names)
        shuffled = HashRing(list(reversed(names)))
        for index in range(200):
            key = f"k{index}".encode()
            assert forward.preference_list(key, 3) == shuffled.preference_list(key, 3)

    def test_adding_a_node_moves_about_one_nth_of_keys(self):
        # The ring's raison d'être: joining member n+1 of n+1 remaps
        # ~1/(n+1) of the key space (modulo routing remaps ~n/(n+1)).
        n = 6
        keys = [f"k{i}".encode() for i in range(4000)]
        ring = HashRing([f"n{i}" for i in range(n)])
        before = {key: ring.primary(key) for key in keys}
        ring.add_node("n_new")
        moved = sum(1 for key in keys if ring.primary(key) != before[key])
        expected = len(keys) / (n + 1)
        assert moved > 0
        assert moved <= expected * 1.6, (
            f"{moved} keys moved; a stable ring should move ~{expected:.0f}"
        )
        # Every moved key moved *to* the new member, never sideways.
        for key in keys:
            if ring.primary(key) != before[key]:
                assert ring.primary(key) == "n_new"

    def test_remove_restores_prior_mapping(self):
        keys = [f"k{i}".encode() for i in range(500)]
        ring = HashRing(["a", "b", "c", "d"])
        before = {key: ring.preference_list(key, 2) for key in keys}
        ring.add_node("e")
        ring.remove_node("e")
        assert {key: ring.preference_list(key, 2) for key in keys} == before

    def test_validation(self):
        ring = HashRing(["a", "b"])
        with pytest.raises(ConfigurationError):
            ring.preference_list(b"k", 3)  # rf > members
        with pytest.raises(ConfigurationError):
            ring.preference_list(b"k", 0)
        with pytest.raises(ConfigurationError):
            ring.add_node("a")  # duplicate
        with pytest.raises(ConfigurationError):
            ring.remove_node("zzz")
        with pytest.raises(ConfigurationError):
            HashRing(vnodes=0)


class TestQuorumReplication:
    def test_writes_land_on_rf_replicas(self):
        sim = ClusterSimulator(5, small_options, seed=1, replication_factor=3)
        for index in range(40):
            sim.put(f"k{index:04d}".encode(), b"v%d" % index)
        for index in range(40):
            key = f"k{index:04d}".encode()
            copies = sum(
                1 for node in sim.preference_nodes(key)
                if node.db.get(key) is not None
            )
            assert copies == 3
            assert sim.get(key) == b"v%d" % index

    def test_delete_is_a_versioned_tombstone(self):
        sim = ClusterSimulator(4, small_options, seed=2, replication_factor=2)
        sim.put(b"k1", b"v1")
        sim.put(b"k2", b"v2")
        sim.delete(b"k1")
        assert sim.get(b"k1") is None
        assert sim.get(b"k2") == b"v2"
        assert dict(sim.scan(b"k")) == {b"k2": b"v2"}
        # The tombstone is a real versioned row on every replica, so
        # LWW ordering applies to deletes too.
        for node in sim.preference_nodes(b"k1"):
            stored = node.db.get(b"k1")
            assert stored is not None
            _version, flag, _payload = decode_envelope(stored)
            assert flag == 1

    def test_serving_continues_through_one_node_death(self):
        sim = ClusterSimulator(5, small_options, seed=3, replication_factor=3)
        for index in range(30):
            sim.put(f"k{index:04d}".encode(), b"before")
        sim.kill(1)
        for index in range(60):
            sim.put(f"k{index:04d}".encode(), b"after")
        for index in range(60):
            assert sim.get(f"k{index:04d}".encode()) == b"after"
        report = sim.report()
        assert report.dead_nodes == 1
        assert report.hints_outstanding > 0  # node1's missed writes queued

    def test_unavailable_without_quorum(self):
        sim = ClusterSimulator(3, small_options, seed=4)  # RF=1
        victim = sim.nodes[1]
        key = key_with_primary(sim, victim)
        sim.put(key, b"v")
        sim.kill(victim)
        with pytest.raises(ClusterUnavailableError):
            sim.get(key)
        with pytest.raises(ClusterUnavailableError):
            sim.put(key, b"v2")
        # RF=3, R=W=2: losing two of a key's three replicas is an outage.
        sim3 = ClusterSimulator(4, small_options, seed=5, replication_factor=3)
        key = b"k0000"
        replicas = sim3.preference_nodes(key)
        sim3.kill(replicas[0])
        sim3.kill(replicas[1])
        with pytest.raises(ClusterUnavailableError):
            sim3.get(key)
        with pytest.raises(ClusterUnavailableError):
            sim3.put(key, b"v")

    def test_quorum_read_outvotes_stale_replica_and_repairs_it(self):
        sim = ClusterSimulator(5, small_options, seed=6, replication_factor=3)
        key = b"k0000"
        primary = sim.preference_nodes(key)[0]
        sim.put(key, b"v1")
        sim.kill(primary)
        sim.put(key, b"v2")  # reaches the two live replicas; hint queued
        # The hint is lost: the primary comes back stale.
        sim.recover(primary, replay_hints=False)
        assert decode_envelope(primary.db.get(key))[2] == b"v1"
        # A quorum read contacts the stale primary first, but the
        # fresher replica's higher version wins — and the primary is
        # read-repaired before the answer returns.
        assert sim.get(key) == b"v2"
        assert sim.read_repairs >= 1
        assert decode_envelope(primary.db.get(key))[2] == b"v2"

    def test_repair_replicas_converges_all_live_copies(self):
        sim = ClusterSimulator(5, small_options, seed=7, replication_factor=3)
        for index in range(30):
            sim.put(f"k{index:04d}".encode(), b"v1")
        victim = sim.nodes[2]
        sim.kill(victim)
        for index in range(30):
            sim.put(f"k{index:04d}".encode(), b"v2")
        sim.recover(victim, replay_hints=False)  # stale victim
        repaired = sim.repair_replicas()
        assert repaired > 0
        for index in range(30):
            key = f"k{index:04d}".encode()
            payloads = {
                decode_envelope(node.db.get(key))[2]
                for node in sim.preference_nodes(key)
            }
            assert payloads == {b"v2"}
        assert sim.repair_replicas() == 0  # idempotent once converged

    def test_hinted_handoff_replays_on_recovery(self):
        sim = ClusterSimulator(5, small_options, seed=8, replication_factor=3)
        victim = sim.nodes[0]
        sim.kill(victim)
        written = {}
        for index in range(60):
            key = f"k{index:04d}".encode()
            sim.put(key, b"v%d" % index)
            sim.put(key, b"w%d" % index)  # a second version per key
            written[key] = b"w%d" % index
        assert sim.hints_outstanding() > 0
        applied = sim.recover(victim)
        assert applied > 0
        assert sim.hints_outstanding() == 0
        # The recovered node holds the *newest* version of every key it
        # replicates — LWW-guarded replay, not blind overwrite.
        for key, value in written.items():
            if victim in sim.preference_nodes(key):
                assert decode_envelope(victim.db.get(key))[2] == value
        report = sim.report()
        assert report.hints_replayed == applied
        assert report.dead_nodes == 0

    def test_scan_survives_owner_death(self):
        sim = ClusterSimulator(4, small_options, seed=9, replication_factor=2)
        for index in range(100):
            sim.put(f"k{index:04d}".encode(), b"v%d" % index)
        sim.flush_all()
        sim.kill(0)
        rows = sim.scan(b"k")
        assert len(rows) == 100
        assert dict(rows)[b"k0042"] == b"v42"
        # The limited scan keeps its exact-prefix contract through the
        # outage.
        for limit in (1, 7, 50, 100, 140):
            assert sim.scan(b"k", limit=limit) == rows[:limit]

    @pytest.mark.parametrize("limit", [0, -1, -5])
    def test_scan_limit_below_one_returns_no_rows(self, limit):
        # A remote scan op takes its limit from client bytes, so any
        # int can arrive; a single store answers [] below 1.
        sim = ClusterSimulator(3, small_options, seed=11, replication_factor=3)
        assert sim.scan(b"k", None, limit) == []
        for index in range(30):
            sim.put(f"k{index:04d}".encode(), b"v")
        assert sim.scan(b"k", None, limit) == []
        assert sim.scan(b"k", None, 1) == [(b"k0000", b"v")]

    def test_rf1_scan_through_outage_is_best_effort(self):
        sim = ClusterSimulator(3, small_options, seed=10)
        for index in range(90):
            sim.put(f"k{index:04d}".encode(), b"v")
        full = sim.scan(b"k")
        assert len(full) == 90
        sim.kill(2)
        partial = sim.scan(b"k")
        # Single-copy: the dead node's keys are simply missing.
        assert 0 < len(partial) < 90
        assert set(partial) <= set(full)

    @pytest.mark.parametrize(
        "row",
        [
            b"raw-row",  # no envelope header at all
            bytes([0xE4]) + b"\x00" * 8,  # magic byte, header cut short
            encode_envelope(1, 2, b"x"),  # unknown flag
            bytes([0xE4]) + b"\xff" * 9 + b"bogus",  # forged header
            encode_envelope(2, 0, b"future"),  # past the clock (1)
        ],
        ids=["raw", "short", "flag", "forged", "future"],
    )
    def test_rows_outside_the_contract_fail_closed(self, row):
        # Every row a node holds must be an envelope this cluster
        # wrote. A replica serving anything else fails the read
        # instead of being outvoted, and the scan and anti-entropy
        # paths refuse it the same way.
        sim = ClusterSimulator(4, small_options, seed=17, replication_factor=2)
        key = b"k0000"
        sim.put(key, b"real")
        assert sim.read_quorum == 2
        sim.preference_nodes(key)[1].db.put(key, row)
        with pytest.raises(KVStoreError):
            sim.get(key)
        with pytest.raises(KVStoreError):
            sim.scan(b"k")
        with pytest.raises(KVStoreError):
            sim.scan(b"k", limit=1)
        with pytest.raises(KVStoreError):
            sim.repair_replicas()

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "ROADMAP direction 4: Node.import_file places a migrated SST "
            "by level, not by the age of its rows, so it shadows newer "
            "rows of the same keys"
        ),
    )
    def test_imported_file_does_not_shadow_newer_rows(self):
        sim = ClusterSimulator(
            2,
            lambda: small_options(memtable_entries=4, level0_file_limit=4),
            seed=23,
        )
        key = b"k0000"
        owner = sim.preference_nodes(key)[0]
        other = next(node for node in sim.nodes if node is not owner)

        def move_file_holding(donor, receiver):
            level, sst = next(
                (level, sst)
                for level, sst in donor.db.manifest.live_files()
                if sst.min_key <= key <= sst.max_key
            )
            receiver.import_file(level, donor.export_file(level, sst))

        sim.put(key, b"old")
        sim.flush_all()
        move_file_holding(owner, other)
        sim.put(key, b"new")
        sim.flush_all()
        move_file_holding(other, owner)
        assert sim.get(key) == b"new"
        assert dict(sim.scan(b"k"))[key] == b"new"

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "ROADMAP direction 4: load-policy migration imports SSTs "
            "that shadow newer rows, so an RF=1 fleet answers some "
            "reads with stale values"
        ),
    )
    def test_rf1_load_rebalancing_gives_the_single_store_answers(self):
        expected = driver_fingerprint(store_target_factory(e11_options), "a")
        assert driver_fingerprint(
            cluster_target_factory(4, e11_options), "a", rebalance_every=50
        ) == expected

    def test_quorum_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterSimulator(3, small_options, replication_factor=4)
        with pytest.raises(ConfigurationError):
            ClusterSimulator(
                3, small_options, replication_factor=2, read_quorum=3
            )
        with pytest.raises(ConfigurationError):
            ClusterSimulator(
                3, small_options, replication_factor=2, write_quorum=0
            )

    def test_fault_injection_validation(self):
        sim = ClusterSimulator(3, small_options, seed=12)
        with pytest.raises(ConfigurationError):
            sim.recover(0)  # alive
        sim.kill(0)
        with pytest.raises(ConfigurationError):
            sim.kill(0)  # already dead
        with pytest.raises(ConfigurationError):
            sim.kill("nodeX")
        with pytest.raises(ConfigurationError):
            sim.kill(99)
        assert [event[0] for event in sim.fault_events] == ["kill"]

    def test_add_node_joins_ring_and_reconverges(self):
        sim = ClusterSimulator(3, small_options, seed=13, replication_factor=2)
        for index in range(80):
            sim.put(f"k{index:04d}".encode(), b"v%d" % index)
        newcomer = sim.add_node()
        assert newcomer.name in sim.ring.members
        # Rows whose preference lists now include the newcomer were
        # copied over by the anti-entropy pass...
        adopted = [
            f"k{index:04d}".encode()
            for index in range(80)
            if newcomer in sim.preference_nodes(f"k{index:04d}".encode())
        ]
        assert adopted  # 64 vnodes: the newcomer owns some of 80 keys
        for key in adopted:
            assert newcomer.db.get(key) is not None
        # ...and every key still reads back correctly.
        for index in range(80):
            assert sim.get(f"k{index:04d}".encode()) == b"v%d" % index

    def test_routing_follows_membership_changes(self):
        """After add_node and decommission, every key routes to the
        replica names of a ring built fresh from the member set."""
        sim = ClusterSimulator(
            4, small_options, seed=15, replication_factor=3, vnodes=8
        )
        keys = [f"k{index:04d}".encode() for index in range(300)]

        def check():
            fresh = HashRing(sim.ring.members, vnodes=8)
            for key in keys:
                names = tuple(node.name for node in sim.preference_nodes(key))
                assert names == fresh.preference_list(key, 3)

        for key in keys:
            sim.put(key, b"v")
        check()
        sim.add_node()
        check()
        sim.decommission("node1")
        check()
        assert all(sim.get(key) == b"v" for key in keys)

    def test_ring_rebalance_moves_ssts_toward_owners(self):
        sim = ClusterSimulator(3, small_options, seed=14)
        for index in range(120):
            sim.put(f"k{index:04d}".encode(), b"v")
        sim.flush_all()
        for node in sim.nodes:
            node.db.compact_all()
        # Dislodge: dump every exportable file onto one node.
        dump = sim.nodes[0]
        for node in sim.nodes[1:]:
            for level, sst in list(node.exportable_files()):
                node.export_file(level, sst)
                dump.import_file(level, sst)
        events = sim.rebalance(max_moves=10, policy="ring")
        assert events
        for event in events:
            assert event.destination != event.source
        # Ring policy reaches a fixed point: every exportable file now
        # sits with its min_key's primary owner.
        assert sim.rebalance(max_moves=10, policy="ring") == []
        with pytest.raises(ConfigurationError):
            sim.rebalance(policy="round-robin")

    def test_load_migration_cannot_lose_acknowledged_writes(self):
        # Load-policy rebalance can strand every copy of a key's SSTs
        # on nodes outside its preference list; the quorum read must
        # then escalate (rest of the preference list, then the whole
        # fleet) and read-repair the quorum replicas rather than
        # answer "missing" for an acknowledged write.
        sim = ClusterSimulator(4, small_options, seed=20, replication_factor=3)
        values = {}
        for index in range(300):
            key = f"k{index:04d}".encode()
            values[key] = b"v%d" % index
            sim.put(key, values[key])
        sim.flush_all()
        for _ in range(150):
            sim.rebalance(max_moves=2, policy="load")
        for key, value in values.items():
            assert sim.get(key) == value, f"acknowledged write {key!r} lost"
        # Self-healing: once repaired, the same reads stop escalating.
        escalations = sim.read_escalations
        for key, value in values.items():
            assert sim.get(key) == value
        assert sim.read_escalations == escalations

    def test_replicated_ring_cluster_defaults_to_ring_rebalance(self):
        # The driver calls rebalance() with no policy;
        # on an RF>1 ring cluster that must resolve to the placement-
        # preserving ring policy, never load-chasing (which strands
        # replicas off their preference lists).
        sim = ClusterSimulator(4, small_options, seed=21, replication_factor=3)
        for index in range(300):
            sim.put(f"k{index:04d}".encode(), b"v")
        sim.flush_all()
        for _ in range(60):
            sim.rebalance(max_moves=2)
        for node in sim.nodes:
            for _level, sst in node.db.manifest.live_files():
                assert node in sim.preference_nodes(sst.min_key), (
                    f"default rebalance stranded {sst.file_id} on "
                    f"{node.name}, off its preference list"
                )
        assert sim.read_escalations == 0
        # Single-copy fleets keep the seed's load-chasing default.
        rf1 = ClusterSimulator(2, small_options, seed=22)
        for index in range(80):
            rf1.nodes[0].db.put(f"k{index:04d}".encode(), b"v")
        rf1.nodes[0].db.flush()
        events = rf1.rebalance(max_moves=2)
        assert events and all(e.source == "node0" for e in events)

    def test_rebalance_stands_down_without_two_live_nodes(self):
        sim = ClusterSimulator(2, small_options, seed=15)
        for index in range(40):
            sim.put(f"k{index:04d}".encode(), b"v")
        sim.flush_all()
        sim.kill(1)
        assert sim.rebalance(max_moves=3) == []


def _expected_final_state(spec: WorkloadSpec, shard_seed: int):
    """Replay the driver's exact op stream; return the last-acked value
    per key (YCSB A–F issue no deletes)."""
    from repro.simulation.seeds import derive_seed

    rng = random.Random(derive_seed(shard_seed, 0x0B5))
    state = {}
    for op, key, value in load_phase(spec, rng):
        state[key] = value
    for op, key, value in run_phase(spec, rng):
        if op in ("put", "rmw"):
            state[key] = value
    return state


@pytest.mark.chaos
class TestChaosDriver:
    """Fault-injection schedules through the WorkloadDriver."""

    NODES = 5
    RF = 3

    def _spec(self, workload, ops=400):
        return WorkloadSpec(
            workload=workload,
            record_count=150,
            operation_count=ops,
            value_size=16,
            max_scan_length=25,
        )

    @pytest.mark.parametrize("workload", list("abcdef"))
    def test_every_target_gives_the_single_store_answers(self, workload):
        # A fleet answers as one store would: the same op stream gives
        # the same outcome fingerprint on a single store, a 4-node RF=1
        # cluster, and a 4-node RF=3 cluster that rebalances by ring
        # every 50 ops while node 1 is down from op 700 to op 1500.
        expected = driver_fingerprint(
            store_target_factory(e11_options), workload
        )
        assert driver_fingerprint(
            cluster_target_factory(4, e11_options), workload
        ) == expected
        assert driver_fingerprint(
            cluster_target_factory(4, e11_options, replication_factor=3),
            workload,
            rebalance_every=50,
            chaos=(
                ChaosEvent(at_op=700, action="kill", node=1),
                ChaosEvent(at_op=1500, action="recover", node=1),
            ),
        ) == expected

    @pytest.mark.parametrize("workload", list("abcdef"))
    def test_every_workload_finishes_through_node_death(self, workload):
        """The acceptance gate: RF=3, one node killed mid-run, every
        YCSB mix completes with zero lost acknowledged writes."""
        spec = self._spec(workload)
        config = DriverConfig(
            spec=spec,
            shards=1,
            workers=1,
            seed=20230414,
            chaos=(ChaosEvent(at_op=300, action="kill", node=1),),
        )
        driver = WorkloadDriver(
            cluster_target_factory(
                self.NODES, small_options, replication_factor=self.RF
            ),
            config,
            collect=lambda sim: sim,
        )
        result = driver.run()
        assert result.operations == spec.operation_count
        sim = result.shard_results[0].collected
        assert sim.report().dead_nodes == 1
        # Zero lost acknowledged writes: every key's last acknowledged
        # value is still readable through the surviving quorum.
        from repro.simulation.seeds import derive_seed

        shard_seed = derive_seed(config.seed, 0xD21E, 0)
        expected = _expected_final_state(spec, shard_seed)
        assert expected
        for key, value in expected.items():
            assert sim.get(key) == value, (
                f"workload {workload}: acknowledged write to {key!r} lost"
            )

    def test_chaos_outcomes_bit_identical_at_any_workers(self):
        """Op streams and outcome fingerprints are pure in
        (seed, chaos schedule) — ``workers=`` never changes them."""
        spec = self._spec("f")
        base = dict(
            spec=spec,
            shards=3,
            warmup_operations=50,
            seed=7,
            chaos=(
                ChaosEvent(at_op=250, action="kill", node=2),
                ChaosEvent(at_op=450, action="recover", node=2),
            ),
        )

        def run(workers):
            return WorkloadDriver(
                cluster_target_factory(
                    self.NODES, small_options, replication_factor=self.RF
                ),
                DriverConfig(workers=workers, **base),
                collect=flush_and_report,
            ).run()

        serial, threaded = run(1), run(3)
        assert serial.fingerprint == threaded.fingerprint
        assert serial.op_counts == threaded.op_counts
        for left, right in zip(serial.shard_results, threaded.shard_results):
            assert left.fingerprint == right.fingerprint
            assert left.collected.audit.total_ids_assigned == (
                right.collected.audit.total_ids_assigned
            )

    def test_recovery_replays_hints_mid_run(self):
        spec = self._spec("a", ops=500)
        config = DriverConfig(
            spec=spec,
            shards=1,
            seed=3,
            chaos=(
                ChaosEvent(at_op=200, action="kill", node=0),
                ChaosEvent(at_op=400, action="recover", node=0),
            ),
        )
        result = WorkloadDriver(
            cluster_target_factory(
                self.NODES, small_options, replication_factor=self.RF
            ),
            config,
            collect=flush_and_report,
        ).run()
        report = result.shard_results[0].collected
        assert report.dead_nodes == 0
        assert report.hints_replayed > 0
        assert report.hints_outstanding == 0

    def test_chaos_with_rebalance_ticks_interleave(self):
        spec = self._spec("b")
        config = DriverConfig(
            spec=spec,
            shards=1,
            seed=5,
            rebalance_every=100,
            chaos=(
                ChaosEvent(at_op=250, action="kill", node=3),
                ChaosEvent(at_op=350, action="recover", node=3),
            ),
        )
        result = WorkloadDriver(
            cluster_target_factory(
                self.NODES, small_options, replication_factor=self.RF
            ),
            config,
            collect=flush_and_report,
        ).run()
        assert result.operations == spec.operation_count

    def test_chaos_requires_a_cluster_target(self):
        config = DriverConfig(
            spec=self._spec("c", ops=10),
            shards=1,
            chaos=(ChaosEvent(at_op=5, action="kill", node=0),),
        )
        driver = WorkloadDriver(store_target_factory(small_options), config)
        with pytest.raises(ConfigurationError):
            driver.run()

    def test_chaos_event_validation_and_ordering(self):
        with pytest.raises(ConfigurationError):
            ChaosEvent(at_op=0, action="kill", node=0)
        with pytest.raises(ConfigurationError):
            ChaosEvent(at_op=1, action="explode", node=0)
        with pytest.raises(ConfigurationError):
            ChaosEvent(at_op=1, action="kill", node=-1)
        config = DriverConfig(
            spec=self._spec("c", ops=10),
            chaos=(
                ChaosEvent(at_op=9, action="recover", node=0),
                ChaosEvent(at_op=4, action="kill", node=0),
            ),
        )
        assert [event.at_op for event in config.chaos] == [4, 9]
