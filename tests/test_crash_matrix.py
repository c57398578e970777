"""Property-based crash-recovery matrix (``crash`` CI lane).

Three layers of assurance that the acked-write contract holds:

1. An exhaustive matrix killing the store at **every labeled crash
   point** (``wal-append``, ``fsync``, ``flush``, ``compaction``,
   ``manifest-commit``) under **every** :class:`WriteMode`, then
   reopening and checking the recovered state is a prefix of the
   attempted ops that covers everything acknowledged. An ascending-key
   stream, whose compactions move files down instead of rewriting
   them, is also killed at every one of its manifest commits.
2. A hypothesis property test crashing at an *arbitrary* storage op
   under a generated op sequence — same prefix invariant, explored
   instead of enumerated.
3. An RF=3 cluster crash (``kill(mode="crash")`` + WAL-replay
   ``recover()``) mid-YCSB through the workload driver: zero lost
   acknowledged writes and a bit-identical outcome fingerprint.

Everything is deterministic under fixed seeds (hypothesis runs
derandomized), so a failure reproduces exactly.
"""

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulatedCrashError
from repro.kvstore.db import MiniRocks
from repro.kvstore.options import Options
from repro.kvstore.storage import SimulatedStorage
from repro.kvstore.wal import WriteMode
from repro.simulation.seeds import derive_seed
from repro.workloads.driver import (
    ChaosEvent,
    DriverConfig,
    WorkloadDriver,
    cluster_target_factory,
)
from repro.workloads.ycsb import WorkloadSpec, load_phase, run_phase

pytestmark = pytest.mark.crash

#: Every labeled operation the durability path executes; the matrix
#: kills the store at the first occurrence of each.
CRASH_LABELS = (
    "wal-append",
    "fsync",
    "flush",
    "compaction",
    "manifest-commit",
)

WRITE_MODES = (WriteMode.NOSYNC, WriteMode.BATCH, WriteMode.SYNC_EVERY_WRITE)

#: Small key pool: collisions between attempted ops make the prefix
#: check meaningful (a resurrected stale value is detectable).
KEYS = [f"key{i}".encode() for i in range(6)]


def _matrix_options(mode):
    return Options(
        memtable_entries=4,
        block_entries=4,
        level0_file_limit=2,
        bloom_bits_per_key=0,
        write_mode=mode,
        wal_batch_size=2,
    )


def _op_stream(n, seed):
    """Deterministic mixed put/delete stream over the small key pool."""
    rng = random.Random(seed)
    ops = []
    for i in range(n):
        key = KEYS[rng.randrange(len(KEYS))]
        if rng.random() < 0.2:
            ops.append(("delete", key, None))
        else:
            ops.append(("put", key, f"v{i}".encode()))
    return ops


def _apply(ops):
    state = {}
    for op, key, value in ops:
        if op == "put":
            state[key] = value
        else:
            state.pop(key, None)
    return state


def _execute(db, op):
    kind, key, value = op
    if kind == "put":
        return db.put(key, value)
    return db.delete(key)


def _recovered_state(db, keys):
    return {key: db.get(key) for key in keys if db.get(key) is not None}


def _run_until_crash(db, ops):
    """Execute ``ops`` until one crashes; return the attempted ops, the
    acknowledged watermark and whether a crash fired."""
    attempted = []
    acked = 0
    for op in ops:
        attempted.append(op)  # attempted BEFORE executing
        try:
            _execute(db, op)
        except SimulatedCrashError:
            # durable_seqno may have advanced during the fatal op
            # (e.g. the group fsync completed before a later flush
            # step crashed) — those writes were acknowledged too.
            return attempted, max(acked, db.durable_seqno), True
        acked = db.durable_seqno
    return attempted, acked, False


def _assert_acked_prefix_survives(storage, options, attempted, acked, context):
    """The core invariant: after restart, the visible state equals
    ``apply(attempted[:k])`` for some ``k`` with ``acked <= k <=
    len(attempted)`` — every acknowledged write survives, and no
    unacknowledged write resurrects out of order or ahead of a lost
    one."""
    keys = sorted(set(KEYS).union(op[1] for op in attempted))
    storage.restart()
    reopened = MiniRocks.open(
        storage, options=options, rng=random.Random(999)
    )
    recovered = _recovered_state(reopened, keys)
    candidates = [
        k
        for k in range(acked, len(attempted) + 1)
        if _apply(attempted[:k]) == recovered
    ]
    assert candidates, (
        f"{context}: recovered state matches no acked-covering prefix "
        f"(acked={acked}, attempted={len(attempted)}, "
        f"recovered={recovered})"
    )
    # Recovery itself must be durable: crash again immediately and the
    # same state must come back.
    k = candidates[0]
    storage.crash()
    storage.restart()
    again = MiniRocks.open(storage, options=options, rng=random.Random(998))
    assert _recovered_state(again, keys) == _apply(attempted[:k]), (
        f"{context}: recovered state did not survive a second crash"
    )
    # Recovery must also leave a *writable* log: new acked writes land
    # in a fresh segment after the (possibly torn) recovered one, and
    # a third crash must not misread the old tear as mid-log
    # corruption and drop them (the double-crash regression).
    followups = [
        ("put", key, f"post-crash-{i}".encode())
        for i, key in enumerate(KEYS[:3])
    ]
    for op in followups:
        _execute(again, op)
    again.sync_wal()
    storage.crash()
    storage.restart()
    final = MiniRocks.open(storage, options=options, rng=random.Random(997))
    assert _recovered_state(final, keys) == _apply(
        attempted[:k] + followups
    ), (
        f"{context}: acked post-recovery writes lost after another crash"
    )


class TestLabeledCrashMatrix:
    """Kill at every labeled durability op x every WriteMode."""

    @pytest.mark.parametrize("mode", WRITE_MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("label", CRASH_LABELS)
    def test_kill_at_labeled_point(self, label, mode):
        options = _matrix_options(mode)
        # zlib.crc32, not hash(): builtin str hashing is randomized
        # per process and would unfix the torn-tail seed.
        storage = SimulatedStorage(
            seed=derive_seed(41, zlib.crc32(label.encode()) & 0xFFFF)
        )
        db = MiniRocks.open(storage, options=options, rng=random.Random(7))
        storage.plan_crash(at=1, label=label)

        ops = _op_stream(60, seed=derive_seed(17, ord(label[0]), 1))
        attempted, acked, crashed = _run_until_crash(db, ops)
        if not crashed:
            # Some cells never fire (NOSYNC never fsyncs): fall back
            # to an untargeted process death with everything buffered.
            assert mode is WriteMode.NOSYNC and label == "fsync", (
                f"label {label!r} unexpectedly never fired under {mode}"
            )
            acked = db.durable_seqno
            storage.crash()

        _assert_acked_prefix_survives(
            storage, options, attempted, acked, f"{label} x {mode.value}"
        )

    @pytest.mark.parametrize("mode", WRITE_MODES, ids=lambda m: m.value)
    def test_every_matrix_label_fires(self, mode):
        """The matrix is honest: each labeled point is actually reached
        by the workload (except fsync under NOSYNC, by design)."""
        options = _matrix_options(mode)
        storage = SimulatedStorage(seed=1)
        db = MiniRocks.open(storage, options=options, rng=random.Random(7))
        for op in _op_stream(60, seed=derive_seed(17, ord("w"), 1)):
            _execute(db, op)
        fired = set(storage._label_counts)
        expected = set(CRASH_LABELS)
        if mode is WriteMode.NOSYNC:
            expected.discard("fsync")
        assert expected <= fired, f"never fired: {expected - fired}"


class TestTrivialMoveCrashes:
    """Kill at every manifest commit of an ascending-key stream.

    Each flushed file lies past every file below it, so the stream's
    compactions are trivial moves: the commit that re-files a file one
    level down is the only storage op a move makes. The labeled matrix
    kills only at each label's first occurrence, and its 6-key stream
    never moves a file.
    """

    OPS = [("put", f"asc{i:03d}".encode(), f"v{i}".encode()) for i in range(48)]

    def _open(self, mode, seed):
        storage = SimulatedStorage(seed=seed)
        db = MiniRocks.open(
            storage, options=_matrix_options(mode), rng=random.Random(7)
        )
        return storage, db

    @pytest.mark.parametrize("mode", WRITE_MODES, ids=lambda m: m.value)
    def test_kill_at_every_manifest_commit(self, mode):
        storage, db = self._open(mode, seed=derive_seed(43, 0))
        _run_until_crash(db, self.OPS)
        assert db.stats.trivial_moves > 0
        commits = storage._label_counts["manifest-commit"]
        for at in range(1, commits + 1):
            storage, db = self._open(mode, seed=derive_seed(43, at))
            storage.plan_crash(at=at, label="manifest-commit")
            attempted, acked, crashed = _run_until_crash(db, self.OPS)
            assert crashed, f"manifest commit {at} never fired"
            _assert_acked_prefix_survives(
                storage, _matrix_options(mode), attempted, acked,
                f"manifest-commit {at}/{commits} x {mode.value}",
            )


class TestCrashProperty:
    """Hypothesis: crash at an arbitrary storage op, any op sequence."""

    @given(
        data=st.data(),
        mode=st.sampled_from(WRITE_MODES),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_acked_writes_survive_any_crash(self, data, mode, seed):
        options = _matrix_options(mode)
        storage = SimulatedStorage(seed=seed)
        db = MiniRocks.open(storage, options=options, rng=random.Random(seed))

        n_ops = data.draw(st.integers(min_value=1, max_value=50), label="n_ops")
        crash_at = data.draw(
            st.integers(min_value=1, max_value=200), label="crash_at_storage_op"
        )
        storage.plan_crash(at=crash_at)  # label=None: Nth mutating op

        rng = random.Random(seed ^ 0x5EED)
        attempted = []
        acked = 0
        crashed = False
        for i in range(n_ops):
            key = KEYS[rng.randrange(len(KEYS))]
            if rng.random() < 0.25:
                op = ("delete", key, None)
            else:
                op = ("put", key, f"v{seed}-{i}".encode())
            attempted.append(op)
            try:
                _execute(db, op)
            except SimulatedCrashError:
                crashed = True
                break
            acked = db.durable_seqno
        if crashed:
            acked = max(acked, db.durable_seqno)
        else:
            storage.crash()  # plan beyond the workload: die at the end
            acked = db.durable_seqno

        _assert_acked_prefix_survives(
            storage,
            options,
            attempted,
            acked,
            f"property mode={mode.value} seed={seed} crash_at={crash_at}",
        )


def _expected_final_state(spec, shard_seed):
    """Replay the driver's exact op stream; last-acked value per key."""
    rng = random.Random(derive_seed(shard_seed, 0x0B5))
    state = {}
    for op, key, value in load_phase(spec, rng):
        state[key] = value
    for op, key, value in run_phase(spec, rng):
        if op in ("put", "rmw"):
            state[key] = value
    return state


def _cluster_small_options(**overrides):
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


class TestClusterCrashChaos:
    """RF=3 durable fleet: crash-kill + WAL-replay recover mid-YCSB."""

    NODES = 5
    RF = 3

    def _config(self, workload="a", ops=400, seed=20230414):
        spec = WorkloadSpec(
            workload=workload,
            record_count=150,
            operation_count=ops,
            value_size=16,
            max_scan_length=25,
        )
        return DriverConfig(
            spec=spec,
            shards=1,
            workers=1,
            seed=seed,
            chaos=(
                ChaosEvent(at_op=200, action="kill", node=1, mode="crash"),
                ChaosEvent(at_op=320, action="recover", node=1),
            ),
        )

    def _run(self, config):
        driver = WorkloadDriver(
            cluster_target_factory(
                self.NODES,
                _cluster_small_options,
                replication_factor=self.RF,
                durable=True,
            ),
            config,
            collect=lambda sim: sim,
        )
        return driver.run()

    @pytest.mark.parametrize("workload", ["a", "f"])
    def test_crash_kill_and_recover_loses_zero_acked_writes(self, workload):
        config = self._config(workload)
        result = self._run(config)
        assert result.operations == config.spec.operation_count
        sim = result.shard_results[0].collected

        report = sim.report()
        assert report.dead_nodes == 0  # recovered
        events = [(e[0], e[1]) for e in sim.fault_events]
        assert ("crash", "node1") in events
        assert ("recover", "node1") in events

        shard_seed = derive_seed(config.seed, 0xD21E, 0)
        expected = _expected_final_state(config.spec, shard_seed)
        assert expected
        for key, value in expected.items():
            assert sim.get(key) == value, (
                f"workload {workload}: acknowledged write to {key!r} "
                f"lost across crash-restart"
            )

    def test_flush_all_skips_a_crashed_node_and_flushes_an_outage_node(
        self,
    ):
        from repro.distributed.cluster import ClusterSimulator

        sim = ClusterSimulator(
            4, _cluster_small_options, seed=5, replication_factor=3,
            durable=True,
        )
        for index in range(5):  # fewer than memtable_entries: no flush
            sim.put(b"k%04d" % index, b"v")
        crashed, outage = sim.nodes[0], sim.nodes[1]
        assert len(crashed.db.memtable) and len(outage.db.memtable)
        sim.kill(crashed, mode="crash")
        sim.kill(outage)
        sim.flush_all()
        assert len(outage.db.memtable) == 0
        assert sim.report().dead_nodes == 2
        sim.recover(crashed)  # WAL replay rebuilds what the crash lost
        sim.recover(outage)
        assert all(sim.get(b"k%04d" % index) == b"v" for index in range(5))

    def test_crash_chaos_fingerprint_is_deterministic(self):
        """Torn tails, replay, and recovery are all seed-pure: two runs
        produce bit-identical outcome fingerprints."""
        first = self._run(self._config("f"))
        second = self._run(self._config("f"))
        assert first.fingerprint == second.fingerprint
        assert first.operations == second.operations
        assert (
            first.shard_results[0].op_errors
            == second.shard_results[0].op_errors
        )
