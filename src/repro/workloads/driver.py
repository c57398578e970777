"""The workload driver: YCSB streams executed as a serving benchmark.

:class:`WorkloadDriver` turns the op streams of
:mod:`repro.workloads.ycsb` into a production-style harness. A run is
``shards`` independent client streams, each driving its **own** target
instance (a :class:`~repro.kvstore.db.MiniRocks` store or a
:class:`~repro.distributed.cluster.ClusterSimulator` fleet) through
three phases: bulk load, warmup (executed, not measured), and the
measured phase, with per-op latency captured in a log-bucketed
:class:`LatencyHistogram` (p50/p95/p99) plus aggregate throughput.

Determinism contract (the same one the engine registry established for
Monte-Carlo in ``repro.simulation.plan``): shard ``s``'s op stream and
its target's RNG derive from
``derive_seed(config.seed, _SHARD_LABEL, s)``, so each shard's op
stream and per-op outcomes are pure functions of ``(seed, shard)``.
``workers`` only chooses how many shards execute concurrently —
fingerprints, op counts, and every per-op outcome are **bit-identical
at any** ``workers=`` **count**; only wall-clock metrics (ops/s,
latency percentiles) vary run to run.

Elastic runs extend the same contract: with
``DriverConfig.autoscaler`` set, each shard's fleet scales up/down and
sheds load under an :class:`~repro.distributed.autoscaler.Autoscaler`
driven by a deterministic arrival process
(:class:`~repro.workloads.demand.ArrivalProcess`) — scale-event
schedules and shed decisions are pure in ``(seed, tick)`` too.
"""

from __future__ import annotations

import random
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.distributed.cluster import ClusterSimulator, resolve_quorums
from repro.errors import (
    ClusterUnavailableError,
    ConfigurationError,
    RPCTimeoutError,
)
from repro.kvstore.db import MiniRocks
from repro.kvstore.options import Options
from repro.simulation.seeds import derive_seed
from repro.workloads.ycsb import WorkloadSpec, load_phase, run_phase

if TYPE_CHECKING:  # runtime import is deferred (circular with driver)
    from repro.distributed.autoscaler import AutoscalerConfig

#: Seed-path labels (arbitrary, fixed constants — part of the
#: reproducibility contract, never change them).
_SHARD_LABEL = 0xD21E
_STREAM_LABEL = 0x0B5
_TARGET_LABEL = 0x7A6

#: Outcome digest recorded for an op that failed with a
#: ``ClusterUnavailableError`` (quorum loss, RPC timeout, dead
#: connection). A fixed marker keeps the fingerprint deterministic
#: whenever the *failure itself* is deterministic (e.g. a chaos
#: schedule that provably breaks quorum); wall-clock-dependent
#: failures such as timeouts make the run non-comparable and are
#: reported separately in :attr:`ShardResult.timeouts`.
FAILED_OP_OUTCOME = b"\xfe"


class LatencyHistogram:
    """Log-bucketed latency histogram with ~6% relative resolution.

    HdrHistogram-style: powers of two split into 16 linear sub-buckets,
    so ``record`` is O(1), memory is O(log(max latency)), and
    percentiles come back with bounded relative error — the structure
    production serving benchmarks use, and cheap enough to sit on the
    per-op hot path.
    """

    SUBBUCKET_BITS = 4
    SUBBUCKETS = 1 << SUBBUCKET_BITS

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self.count = 0
        self.total_ns = 0
        self.max_ns = 0

    @classmethod
    def _bucket_of(cls, ns: int) -> int:
        if ns < cls.SUBBUCKETS:
            return ns
        msb = ns.bit_length() - 1
        shift = msb - cls.SUBBUCKET_BITS
        sub = ns >> shift  # in [SUBBUCKETS, 2*SUBBUCKETS)
        return (shift + 1) * cls.SUBBUCKETS + (sub - cls.SUBBUCKETS)

    @classmethod
    def _bucket_midpoint(cls, bucket: int) -> int:
        if bucket < cls.SUBBUCKETS:
            return bucket
        level = bucket // cls.SUBBUCKETS  # == shift + 1 from _bucket_of
        sub = bucket % cls.SUBBUCKETS + cls.SUBBUCKETS
        width = 1 << (level - 1)
        return (sub << (level - 1)) + (width - 1) // 2

    def record(self, ns: int) -> None:
        """Record one latency sample, in nanoseconds."""
        if ns < 0:
            ns = 0
        bucket = self._bucket_of(ns)
        self._counts[bucket] = self._counts.get(bucket, 0) + 1
        self.count += 1
        self.total_ns += ns
        if ns > self.max_ns:
            self.max_ns = ns

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's samples into this one."""
        for bucket, count in other._counts.items():
            self._counts[bucket] = self._counts.get(bucket, 0) + count
        self.count += other.count
        self.total_ns += other.total_ns
        self.max_ns = max(self.max_ns, other.max_ns)

    def percentile(self, q: float) -> int:
        """Latency (ns) at quantile ``q`` in [0, 1], to bucket accuracy."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0
        threshold = q * self.count
        seen = 0
        for bucket in sorted(self._counts):
            seen += self._counts[bucket]
            if seen >= threshold:
                return self._bucket_midpoint(bucket)
        return self.max_ns

    @property
    def mean_ns(self) -> float:
        """Mean recorded latency in nanoseconds (0.0 when empty)."""
        return self.total_ns / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        """The tail numbers a serving benchmark reports, in microseconds."""
        return {
            "count": self.count,
            "mean_us": self.mean_ns / 1000.0,
            "p50_us": self.percentile(0.50) / 1000.0,
            "p95_us": self.percentile(0.95) / 1000.0,
            "p99_us": self.percentile(0.99) / 1000.0,
            "max_us": self.max_ns / 1000.0,
        }


@dataclass(frozen=True)
class ChaosEvent:
    """One fault-injection action on a shard's cluster target.

    ``at_op`` is a **logical op tick**: the 1-based count of executed
    logical ops across the shard's load, warmup, and measured phases —
    the same counter that drives ``rebalance_every``. Because the tick
    stream is a pure function of ``(seed, shard)``, a chaos schedule
    preserves the driver's determinism contract: op streams and
    per-op outcome fingerprints stay bit-identical at any ``workers=``
    count for a fixed seed + schedule. Events whose tick exceeds the
    stream length never fire.
    """

    at_op: int
    #: ``"kill"`` or ``"recover"``.
    action: str
    #: Node index within the shard's cluster target.
    node: int
    #: Failure model for kill events: ``"outage"`` (unreachable, state
    #: kept — the default) or ``"crash"`` (process death on a durable
    #: cluster: memtable lost, recover() replays the WAL). Ignored on
    #: recover events.
    mode: str = "outage"

    def __post_init__(self) -> None:
        if self.at_op < 1:
            raise ConfigurationError("chaos at_op must be >= 1")
        if self.action not in ("kill", "recover"):
            raise ConfigurationError(
                f"chaos action must be 'kill' or 'recover', "
                f"got {self.action!r}"
            )
        if self.node < 0:
            raise ConfigurationError("chaos node index must be >= 0")
        if self.mode not in ("outage", "crash"):
            raise ConfigurationError(
                f"chaos mode must be 'outage' or 'crash', "
                f"got {self.mode!r}"
            )


def validate_chaos_schedule(events) -> None:
    """Reject chaos schedules that cannot play out as written.

    The driver applies events sorted by tick (same-tick events in the
    order given), so a recover at or before its kill tick would either
    crash mid-run ("already alive") or — worse — kill-then-recover
    within one tick and silently no-op the outage the schedule meant to
    inject. Per node, this walks the schedule in driver order and
    requires: no kill of an already-dead node, no recover of a node
    that is alive, and every recover strictly after the kill it undoes.
    Raises :class:`~repro.errors.ConfigurationError` with the offending
    pair spelled out; :class:`DriverConfig` calls it, so every run's
    misconfigurations fail before the load phase, not 90% into a run.
    """
    ordered = sorted(events, key=lambda event: event.at_op)
    last_kill: Dict[int, int] = {}
    dead: set = set()
    for event in ordered:
        if event.action == "kill":
            if event.node in dead:
                raise ConfigurationError(
                    f"chaos schedule kills node {event.node} at op "
                    f"{event.at_op} but it is already dead (killed at "
                    f"op {last_kill[event.node]} with no recover in "
                    "between)"
                )
            dead.add(event.node)
            last_kill[event.node] = event.at_op
        else:  # recover
            if event.node not in dead:
                raise ConfigurationError(
                    f"chaos schedule recovers node {event.node} at op "
                    f"{event.at_op} but no earlier kill left it dead "
                    "(a recover tick at or before its kill tick "
                    "silently no-ops — recover must come strictly "
                    "after the kill)"
                )
            if event.at_op <= last_kill[event.node]:
                raise ConfigurationError(
                    f"chaos schedule recovers node {event.node} at op "
                    f"{event.at_op}, at or before its kill at op "
                    f"{last_kill[event.node]} — recover must come "
                    "strictly after the kill it undoes"
                )
            dead.discard(event.node)


@dataclass(frozen=True)
class DriverConfig:
    """Policy object for one :class:`WorkloadDriver` run."""

    spec: WorkloadSpec
    #: Independent client streams, each with its own target instance.
    #: Fixed by config — NOT by ``workers`` — so results don't depend
    #: on execution parallelism.
    shards: int = 4
    #: How many shards execute concurrently (wall-clock only).
    workers: int = 1
    #: Ops per shard executed (and discarded) before measurement; the
    #: measured phase continues the same stream.
    warmup_operations: int = 0
    seed: int = 0
    #: Cluster targets only: run the load balancer after every k
    #: logical ops (load + warmup + measured all count).
    rebalance_every: Optional[int] = None
    moves_per_rebalance: int = 2
    #: Cluster targets only: kill/recover nodes at fixed logical op
    #: ticks (applied identically to every shard's own fleet). Stored
    #: sorted by tick; same-tick events apply in the order given.
    chaos: Tuple[ChaosEvent, ...] = ()
    #: Elastic serving: run each shard under an
    #: :class:`~repro.distributed.autoscaler.Autoscaler` driving
    #: time-varying demand (the config's ``arrival`` process) through
    #: a deterministic queue model — scale/shed decisions are pure in
    #: ``(seed, tick)``, so fingerprints and scale schedules stay
    #: bit-identical at any ``workers=`` count. ``None`` (default)
    #: keeps the classic statically provisioned run.
    autoscaler: Optional["AutoscalerConfig"] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.warmup_operations < 0:
            raise ConfigurationError("warmup_operations must be >= 0")
        if self.rebalance_every is not None and self.rebalance_every < 1:
            raise ConfigurationError("rebalance_every must be >= 1")
        validate_chaos_schedule(self.chaos)
        object.__setattr__(
            self,
            "chaos",
            tuple(
                sorted(self.chaos, key=lambda event: event.at_op)
            ),
        )


@dataclass
class ShardResult:
    """What one shard's client stream produced."""

    shard: int
    #: Measured logical ops executed (== spec.operation_count).
    operations: int
    histogram: LatencyHistogram
    #: CRC32 over every measured op and its outcome — the determinism
    #: witness: pure in (seed, shard).
    fingerprint: int
    op_counts: Dict[str, int]
    #: Wall-clock duration of this shard's measured phase.
    elapsed_seconds: float
    #: Absolute perf_counter() bounds of the measured phase (equal when
    #: nothing was measured); the aggregate throughput span comes from
    #: these, so concurrent shards aren't double-counted.
    measure_started: float = 0.0
    measure_ended: float = 0.0
    #: Whatever the ``collect`` callback returned for this shard's
    #: target (e.g. a ClusterReport), or None.
    collected: Any = None
    #: Ops (warmup + measured) that failed with a
    #: ``ClusterUnavailableError``-class error, per op type. Failed
    #: measured ops still count toward :attr:`operations` and hash the
    #: :data:`FAILED_OP_OUTCOME` marker into the fingerprint.
    op_errors: Dict[str, int] = field(default_factory=dict)
    #: The subset of those failures that were RPC timeouts
    #: (latency-dependent — a run with any is not
    #: fingerprint-comparable to a clean run).
    timeouts: int = 0
    #: Ops shed by autoscaler admission control: never sent to the
    #: target, fingerprinted as :data:`FAILED_OP_OUTCOME`, and counted
    #: here — NOT in :attr:`op_errors` (a shed is a policy decision,
    #: not a failure). Deterministic, unlike timeouts.
    shed_ops: int = 0
    #: :meth:`Autoscaler.summary` payload (scale events, SLO
    #: accounting, schedule fingerprint) when the shard ran under an
    #: autoscaler, else ``None``.
    elasticity: Optional[Dict[str, Any]] = None


@dataclass
class DriverResult:
    """Aggregate of a full driver run."""

    config: DriverConfig
    shard_results: List[ShardResult]
    #: Whole-run wall clock (target build + load + warmup + measured +
    #: collect); throughput uses :attr:`measured_elapsed_seconds`.
    elapsed_seconds: float
    histogram: LatencyHistogram = field(default_factory=LatencyHistogram)

    def __post_init__(self) -> None:
        for shard in self.shard_results:
            self.histogram.merge(shard.histogram)

    @property
    def operations(self) -> int:
        """Total measured logical ops across shards."""
        return sum(s.operations for s in self.shard_results)

    @property
    def measured_elapsed_seconds(self) -> float:
        """Wall-clock time spent inside measured phases: the union of
        the shards' measured intervals. Load, warmup, and collect time
        are excluded (serial shards contribute disjoint intervals that
        sum; concurrent shards overlap rather than double-counting)."""
        intervals = sorted(
            (s.measure_started, s.measure_ended)
            for s in self.shard_results
            if s.operations > 0
        )
        total = 0.0
        span_start: Optional[float] = None
        span_end = 0.0
        for start, end in intervals:
            if span_start is None or start > span_end:
                if span_start is not None:
                    total += span_end - span_start
                span_start, span_end = start, end
            else:
                span_end = max(span_end, end)
        if span_start is not None:
            total += span_end - span_start
        return total

    @property
    def ops_per_second(self) -> float:
        """Measured-phase throughput (measured ops / measured span)."""
        span = self.measured_elapsed_seconds
        if span <= 0:
            return 0.0
        return self.operations / span

    @property
    def fingerprint(self) -> int:
        """Order-fixed combination of the per-shard fingerprints."""
        crc = 0
        for shard in self.shard_results:
            crc = zlib.crc32(
                shard.fingerprint.to_bytes(4, "little"), crc
            )
        return crc

    @property
    def op_counts(self) -> Dict[str, int]:
        """Per-op totals merged across all shards."""
        merged: Dict[str, int] = {}
        for shard in self.shard_results:
            for op, count in shard.op_counts.items():
                merged[op] = merged.get(op, 0) + count
        return merged

    @property
    def op_errors(self) -> Dict[str, int]:
        """Failed ops per op type, across shards (see ShardResult)."""
        merged: Dict[str, int] = {}
        for shard in self.shard_results:
            for op, count in shard.op_errors.items():
                merged[op] = merged.get(op, 0) + count
        return merged

    @property
    def timeouts(self) -> int:
        """RPC timeouts across shards."""
        return sum(s.timeouts for s in self.shard_results)

    @property
    def shed_ops(self) -> int:
        """Ops shed by autoscaler admission control, across shards."""
        return sum(s.shed_ops for s in self.shard_results)

    @property
    def elasticity(self) -> Optional[Dict[str, Any]]:
        """Merged autoscaler payload (see
        :func:`~repro.distributed.autoscaler.summarize_shards`), or
        ``None`` for classic statically provisioned runs."""
        from repro.distributed.autoscaler import summarize_shards

        return summarize_shards(
            [s.elasticity for s in self.shard_results]
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (the bench artifact schema).

        ``config`` echoes the full resolved run configuration — every
        spec and driver knob, chaos schedule included — so uploaded
        artifacts are self-describing: the run can be reproduced from
        the JSON alone.
        """
        summary = self.histogram.summary()
        spec = self.config.spec
        config = asdict(self.config)
        echo = config.pop("spec")
        echo.update(config, chaos=list(config["chaos"]))
        elasticity = self.elasticity
        extra: Dict[str, Any] = {}
        if elasticity is not None:
            extra["elasticity"] = elasticity
        return {
            "workload": spec.workload,
            "record_count": spec.record_count,
            "operations": self.operations,
            "shards": self.config.shards,
            "workers": self.config.workers,
            "elapsed_seconds": self.elapsed_seconds,
            "measured_elapsed_seconds": self.measured_elapsed_seconds,
            "ops_per_second": self.ops_per_second,
            "fingerprint": self.fingerprint,
            "op_counts": self.op_counts,
            "op_errors": self.op_errors,
            "timeouts": self.timeouts,
            "shed_ops": self.shed_ops,
            "config": echo,
            **summary,
            **extra,
        }


#: Builds one shard's target. Called with (shard index, shard seed).
TargetFactory = Callable[[int, int], Any]


def execute_op(target: Any, op: str, key: bytes, value: bytes) -> bytes:
    """Run one logical op against a store/cluster target; return its
    outcome digest bytes.

    This is **the** executor for the composite ops of
    :mod:`repro.workloads.ycsb` — ``rmw`` performs its get + put pair,
    ``scan`` reads up to ``int(value)`` rows from ``key`` — shared by
    the driver and the RPC server, so the two can never drift on op
    semantics.

    A target exposing ``execute(op, key, value)`` (a
    :class:`~repro.distributed.rpc.NetworkTarget`) receives the whole
    logical op instead: the remote server runs this very function
    against its backing store and returns the outcome digest, so
    composites stay one RPC and fingerprints match the in-process run.
    """
    remote = getattr(target, "execute", None)
    if remote is not None:
        return remote(op, key, value)
    if op == "get":
        result = target.get(key)
        return b"\x00" if result is None else b"\x01" + result
    if op == "put":
        target.put(key, value)
        return b"\x02"
    if op == "delete":
        target.delete(key)
        return b"\x03"
    if op == "rmw":
        current = target.get(key)
        target.put(key, value)
        return b"\x00" if current is None else b"\x01" + current
    if op == "scan":
        rows = target.scan(key, None, int(value))
        digest = 0
        for row_key, row_value in rows:
            digest = zlib.crc32(row_value, zlib.crc32(row_key, digest))
        return len(rows).to_bytes(4, "little") + digest.to_bytes(4, "little")
    raise ConfigurationError(f"unknown workload op {op!r}")


def flush_and_report(sim: ClusterSimulator):
    """The standard cluster ``collect`` callback: flush every node's
    memtable (so trailing writes mint their file IDs) and return the
    :class:`~repro.distributed.cluster.ClusterReport`."""
    sim.flush_all()
    return sim.report()


def store_target_factory(
    options_factory: Callable[[], Options],
    durable: bool = False,
) -> TargetFactory:
    """Each shard drives a private :class:`MiniRocks` instance.

    With ``durable=True`` each shard's store opens on its own
    fault-injecting :class:`~repro.kvstore.storage.SimulatedStorage`
    (seeded from the shard seed), running the group-commit WAL data
    path per ``options.write_mode`` — the target for benchmarking the
    durable write path.
    """
    # Deferred import: keep the non-durable path free of storage deps.
    from repro.kvstore.storage import SimulatedStorage

    def factory(shard: int, shard_seed: int) -> MiniRocks:
        storage = None
        if durable:
            storage = SimulatedStorage(
                seed=derive_seed(shard_seed, _TARGET_LABEL, 1)
            )
        return MiniRocks(
            options_factory(),
            rng=random.Random(derive_seed(shard_seed, _TARGET_LABEL)),
            name=f"shard{shard}",
            storage=storage,
        )

    return factory


def cluster_target_factory(
    num_nodes: int,
    options_factory: Callable[[], Options],
    cache_blocks: int = 8192,
    replication_factor: int = 1,
    read_quorum: Optional[int] = None,
    write_quorum: Optional[int] = None,
    durable: bool = False,
) -> TargetFactory:
    """Each shard drives a private :class:`ClusterSimulator` fleet.

    ``replication_factor``/``read_quorum``/``write_quorum`` configure
    quorum replication (defaults: single-copy, majority quorums) and are
    validated here, before any shard runs;
    ``durable=True`` gives every node fault-injecting storage so chaos
    schedules may use ``mode="crash"`` kills.
    """
    resolve_quorums(num_nodes, replication_factor, read_quorum, write_quorum)

    def factory(shard: int, shard_seed: int) -> ClusterSimulator:
        return ClusterSimulator(
            num_nodes,
            options_factory,
            cache_blocks=cache_blocks,
            seed=derive_seed(shard_seed, _TARGET_LABEL),
            replication_factor=replication_factor,
            read_quorum=read_quorum,
            write_quorum=write_quorum,
            durable=durable,
        )

    return factory


class WorkloadDriver:
    """Executes a :class:`DriverConfig` against per-shard targets.

    Parameters
    ----------
    target_factory:
        Builds one shard's target; see :func:`store_target_factory`
        and :func:`cluster_target_factory`. The target must expose
        ``put/get/delete`` and ``scan(start, end=None, limit=None)``.
    config:
        The run policy.
    collect:
        Optional callback invoked with each shard's target after its
        measured phase; its return value lands in
        :attr:`ShardResult.collected` (e.g. flush + report a cluster).
    """

    def __init__(
        self,
        target_factory: TargetFactory,
        config: DriverConfig,
        collect: Optional[Callable[[Any], Any]] = None,
    ):
        self.target_factory = target_factory
        self.config = config
        self.collect = collect

    # -- shard execution ----------------------------------------------------

    def _run_shard(self, shard: int) -> ShardResult:
        config = self.config
        shard_seed = derive_seed(config.seed, _SHARD_LABEL, shard)
        target = self.target_factory(shard, shard_seed)
        rng = random.Random(derive_seed(shard_seed, _STREAM_LABEL))
        spec = config.spec
        rebalance_every = config.rebalance_every
        chaos = config.chaos
        # Pre-flight: every check that needs the built target runs here,
        # before the load phase, so a misconfigured run fails at once.
        if chaos and not hasattr(target, "kill"):
            raise ConfigurationError(
                "chaos schedules need a fault-injectable target "
                "(a ClusterSimulator); store targets have no kill()"
            )
        nodes = getattr(target, "nodes", None)
        for event in chaos:
            if nodes is not None and event.node >= len(nodes):
                raise ConfigurationError(
                    f"chaos event targets node {event.node} but the "
                    f"target has {len(nodes)} node(s)"
                )
            if (
                event.action == "kill"
                and event.mode == "crash"
                and not getattr(target, "durable", False)
            ):
                raise ConfigurationError(
                    "chaos kill mode='crash' drops unsynced state, which "
                    "needs an in-process durable cluster target "
                    "(durable=True, i.e. --write-mode); other targets "
                    "only support outage kills"
                )
        if rebalance_every is not None and not hasattr(target, "rebalance"):
            raise ConfigurationError(
                "rebalance_every needs a target with rebalance() (a "
                "ClusterSimulator); store and network targets have none"
            )
        can_rebalance = rebalance_every is not None and len(nodes or ()) >= 2
        scaler = None
        if config.autoscaler is not None:
            # Deferred import: autoscaler.py imports demand from this
            # package, so a module-level import would be circular.
            from repro.distributed.autoscaler import Autoscaler

            scaler = Autoscaler(
                target, config.autoscaler, seed=shard_seed
            )
        op_index = 0
        chaos_index = 0

        def tick() -> None:
            nonlocal op_index, chaos_index
            op_index += 1
            while (
                chaos_index < len(chaos)
                and chaos[chaos_index].at_op == op_index
            ):
                event = chaos[chaos_index]
                if event.action == "kill":
                    target.kill(event.node, mode=event.mode)
                else:
                    target.recover(event.node)
                chaos_index += 1
            if scaler is not None:
                scaler.on_tick(op_index)
            if can_rebalance and op_index % rebalance_every == 0:
                target.rebalance(max_moves=config.moves_per_rebalance)

        op_errors: Dict[str, int] = {}
        timeouts = 0

        def guarded_execute(op: str, key: bytes, value: bytes) -> bytes:
            """Execute one op, folding unavailability into the result.

            Quorum loss and RPC timeouts are *outcomes* of a serving
            benchmark, not harness crashes: the op counts, the failure
            is tallied per op type, and the fingerprint absorbs the
            fixed :data:`FAILED_OP_OUTCOME` marker (deterministic
            failures keep fingerprints comparable; timeouts are
            tracked separately because they are not).
            """
            nonlocal timeouts
            try:
                return execute_op(target, op, key, value)
            except ClusterUnavailableError as exc:
                op_errors[op] = op_errors.get(op, 0) + 1
                if isinstance(exc, RPCTimeoutError):
                    timeouts += 1
                return FAILED_OP_OUTCOME

        # Phase 1: bulk load (unmeasured). Errors propagate — a failed
        # load means the dataset the measured phase assumes is absent.
        # The autoscaler observes demand (warming its queue model) but
        # never sheds a load op — the dataset must exist in full.
        for op, key, value in load_phase(spec, rng):
            if scaler is not None:
                scaler.observe_op(op_index + 1, "load")
            execute_op(target, op, key, value)
            tick()
        # Phases 2+3 continue one stream: warmup ops are executed and
        # discarded, the rest are measured.
        stream_spec = replace(
            spec,
            operation_count=spec.operation_count + config.warmup_operations,
        )
        histogram = LatencyHistogram()
        fingerprint = 0
        op_counts: Dict[str, int] = {}
        measured = 0
        start_measure: Optional[float] = None
        for index, (op, key, value) in enumerate(
            run_phase(stream_spec, rng)
        ):
            if index < config.warmup_operations:
                if scaler is None or scaler.observe_op(
                    op_index + 1, "warmup"
                ):
                    guarded_execute(op, key, value)
                tick()
                continue
            if start_measure is None:
                start_measure = time.perf_counter()
            began = time.perf_counter_ns()
            if scaler is None or scaler.observe_op(
                op_index + 1, "measured"
            ):
                outcome = guarded_execute(op, key, value)
            else:
                # Shed: admission control rejected the op before it
                # reached the target. Same outcome marker as a quorum
                # failure, but tallied as shed_ops, not op_errors.
                outcome = FAILED_OP_OUTCOME
            histogram.record(time.perf_counter_ns() - began)
            tick()
            measured += 1
            op_counts[op] = op_counts.get(op, 0) + 1
            fingerprint = zlib.crc32(
                op.encode() + key + outcome, fingerprint
            )
        measure_ended = time.perf_counter()
        if start_measure is None:
            start_measure = measure_ended
        collected = self.collect(target) if self.collect else None
        return ShardResult(
            shard=shard,
            operations=measured,
            histogram=histogram,
            fingerprint=fingerprint,
            op_counts=op_counts,
            elapsed_seconds=measure_ended - start_measure,
            measure_started=start_measure,
            measure_ended=measure_ended,
            collected=collected,
            op_errors=op_errors,
            timeouts=timeouts,
            shed_ops=scaler.shed_ops if scaler is not None else 0,
            elasticity=(
                scaler.summary() if scaler is not None else None
            ),
        )

    # -- the run ------------------------------------------------------------

    def run(self) -> DriverResult:
        """Execute every shard; aggregate latency + throughput."""
        config = self.config
        started = time.perf_counter()
        if config.workers == 1 or config.shards == 1:
            shard_results = [
                self._run_shard(shard) for shard in range(config.shards)
            ]
        else:
            workers = min(config.workers, config.shards)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                shard_results = list(
                    pool.map(self._run_shard, range(config.shards))
                )
        elapsed = time.perf_counter() - started
        return DriverResult(
            config=config,
            shard_results=shard_results,
            elapsed_seconds=elapsed,
        )
