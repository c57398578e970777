"""Which library functions each layer's spans wrap, and the per-layer
metrics derived from those spans.

Every workload prints every per-layer metric; a layer the workload does
not run reports 0.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from perfbench.trace import Aggregate, Tracer, ratio

#: Every per-layer metric, in output order, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "cluster.get_self_us": "us",
    "cluster.put_self_us": "us",
    "cluster.read_repairs": "count",
    "ring.lookup_us": "us",
    "node.reads_per_get": "ratio",
    "node.writes_per_put": "ratio",
    "db.get_us": "us",
    "memtable.hit_ratio": "ratio",
    "bloom.probes_per_get": "ratio",
    "bloom.negative_ratio": "ratio",
    "sst.block_reads_per_get": "ratio",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "db.put_self_us": "us",
    "wal.append_us": "us",
    "flush.count": "count",
    "flush.ms": "ms",
    "compaction.count": "count",
    "compaction.ms": "ms",
    "compaction.time_share": "ratio",
    "compaction.write_amp": "ratio",
    "idgen.ids_minted": "count",
    "idgen.id_collisions": "count",
    "rpc.client_call_us": "us",
    "rpc.server_self_us": "us",
    "rpc.target_us": "us",
    "rpc.executor_hop_us": "us",
    "rpc.wire_us": "us",
    "protocol.codec_us": "us",
    "rpc.frames_per_op": "ratio",
    "game.step_us": "us",
    "adversary.request_us": "us",
    "core.generate_batch_us": "us",
    "numpy.kernel_us_per_trial": "us",
    "numpy.fallback_share": "ratio",
    "plan.self_ms": "ms",
    "py.gc_ms_share": "ratio",
    "host.ref_us": "us",
    "trace.overhead_share": "ratio",
    "trace.coverage_share": "ratio",
}


def _count_hits(key: str):
    def hook(counts, result, args):
        if result is not None:
            counts[key] += 1

    return hook


def _count_bloom_negative(counts, result, args):
    if not result:
        counts["bloom.negative"] += 1


def _count_sst_bytes(counts, result, args):
    counts["sst.bytes"] += sum(len(block.payload) for block in result.blocks)


def _count_put_bytes(key: str):
    def hook(counts, result, args):
        counts[key] += len(args[1]) + len(args[2])

    return hook


def add_kv_layers(tracer: Tracer, cluster: bool) -> None:
    """Spans on the cluster (optional), ring and MiniRocks layers."""
    from repro.kvstore import db as db_module
    from repro.kvstore.blockcache import BlockCache
    from repro.kvstore.bloom import BloomFilter
    from repro.kvstore.db import MiniRocks
    from repro.kvstore.memtable import MemTable
    from repro.kvstore.sstable import SSTable
    from repro.kvstore.wal import WriteAheadLog

    if cluster:
        from repro.distributed.cluster import ClusterSimulator
        from repro.distributed.ring import HashRing

        tracer.add(ClusterSimulator, "get", "cluster.get")
        tracer.add(
            ClusterSimulator, "put", "cluster.put",
            on_result=_count_put_bytes("user.bytes"),
        )
        tracer.add(HashRing, "preference_list", "ring.lookup")
    tracer.add(MiniRocks, "get", "db.get")
    tracer.add(
        MiniRocks, "put", "db.put", on_result=_count_put_bytes("db.put.bytes")
    )
    tracer.add(MiniRocks, "flush", "flush")
    tracer.add(db_module, "run_compaction", "compaction")
    tracer.add(MemTable, "get", "memtable.get", on_result=_count_hits("memtable.hit"))
    tracer.add(MemTable, "put", "memtable.put")
    tracer.add(WriteAheadLog, "append_put", "wal.append")
    tracer.add(BlockCache, "get", "cache.get", on_result=_count_hits("cache.hit"))
    tracer.add(BlockCache, "put", "cache.put")
    tracer.add(
        BloomFilter, "may_contain_hash", "bloom.probe",
        on_result=_count_bloom_negative,
    )
    tracer.add(SSTable, "from_entries", "sst.build", on_result=_count_sst_bytes)


def kv_layer_metrics(agg: Aggregate, counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of the cluster and MiniRocks spans."""
    gets = agg.count.get("db.get", 0)
    puts = agg.count.get("db.put", 0)
    probes = agg.count.get("bloom.probe", 0)
    cache_gets = agg.count.get("cache.get", 0)
    flushes = agg.count.get("flush", 0)
    flush_compaction_ns = agg.nested.get(("flush", "compaction"), 0)
    user_bytes = counts.get("user.bytes") or counts.get("db.put.bytes", 0)
    return {
        "cluster.get_self_us": agg.mean_self_us("cluster.get"),
        "cluster.put_self_us": agg.mean_self_us("cluster.put"),
        "ring.lookup_us": agg.mean_us("ring.lookup"),
        "node.reads_per_get": ratio(gets, agg.count.get("cluster.get", 0)),
        "node.writes_per_put": ratio(puts, agg.count.get("cluster.put", 0)),
        "db.get_us": agg.mean_us("db.get"),
        "memtable.hit_ratio": ratio(
            counts.get("memtable.hit", 0), agg.count.get("memtable.get", 0)
        ),
        "bloom.probes_per_get": ratio(probes, gets),
        "bloom.negative_ratio": ratio(counts.get("bloom.negative", 0), probes),
        "sst.block_reads_per_get": ratio(cache_gets, gets),
        "cache.hit_ratio": ratio(counts.get("cache.hit", 0), cache_gets),
        "db.put_self_us": agg.mean_self_us("db.put"),
        "wal.append_us": agg.mean_us("wal.append"),
        "flush.count": flushes,
        "flush.ms": ratio(agg.total_ns["flush"] - flush_compaction_ns, flushes) / 1e6,
        "compaction.count": agg.count.get("compaction", 0),
        "compaction.ms": agg.mean_us("compaction") / 1000.0,
        "compaction.write_amp": ratio(counts.get("sst.bytes", 0), user_bytes),
        "idgen.ids_minted": agg.count.get("sst.build", 0),
    }


def add_estimation_layers(tracer: Tracer) -> None:
    """Spans on the plan, batch, game, adversary, core and NumPy layers."""
    from repro.adversary.attacks import ClosestPairAttack
    from repro.core.cluster_star import ClusterStarGenerator
    from repro.simulation import engines, montecarlo
    from repro.simulation.game import Game
    from repro.simulation.vectorized import VectorPlan

    def count_steps(counts, result, args):
        counts["game.steps"] += result.steps

    def count_kernel_trials(counts, result, args):
        plan, _seed, offset, stride, trials = args
        played = len(range(offset, trials, stride))
        counts["numpy.trials"] += played
        if plan.kind == "cluster_star":
            counts["numpy.cluster_star_trials"] += played

    def count_fallback(counts, result, args):
        counts["numpy.fallback_trials"] += int(args[4].sum())

    tracer.add(montecarlo, "run_plan", "plan.run")
    tracer.add(engines, "count_range", "batch.count_range")
    tracer.add(Game, "run", "game.run", on_result=count_steps)
    tracer.add(ClosestPairAttack, "next_request", "adversary.request")
    tracer.add(ClusterStarGenerator, "generate_batch", "core.generate_batch")
    tracer.add(
        VectorPlan, "count_collisions", "numpy.kernel",
        on_result=count_kernel_trials,
    )
    tracer.add(VectorPlan, "_replay_fallback", "numpy.fallback", on_result=count_fallback)


def estimation_layer_metrics(
    agg: Aggregate, counts: Dict[str, int]
) -> Dict[str, float]:
    """Per-layer metrics of the estimation spans."""
    kernel_ns = agg.total_ns["numpy.kernel"] - agg.nested.get(
        ("numpy.kernel", "numpy.fallback"), 0
    )
    return {
        "game.step_us": ratio(agg.self_ns["game.run"], counts.get("game.steps", 0))
        / 1000.0,
        "adversary.request_us": agg.mean_us("adversary.request"),
        "core.generate_batch_us": agg.mean_us("core.generate_batch"),
        "numpy.kernel_us_per_trial": ratio(kernel_ns, counts.get("numpy.trials", 0))
        / 1000.0,
        "numpy.fallback_share": ratio(
            counts.get("numpy.fallback_trials", 0),
            counts.get("numpy.cluster_star_trials", 0),
        ),
        "plan.self_ms": agg.mean_self_us("plan.run") / 1000.0,
    }


def add_rpc_client_layers(tracer: Tracer) -> None:
    """Client-side spans: each call, and the codec functions."""
    from repro.distributed import rpc

    tracer.add(rpc.RPCClient, "call", "rpc.client_call", is_async=True)
    for codec in ("encode_kv", "encode_frame", "decode_frame"):
        tracer.add(rpc, codec, "protocol.codec")


class ServerFrameProbe:
    """Server-side RPC spans, installed in the ``uuidp serve`` process.

    A connection's frames run strictly in order on the server loop:
    ``decode_frame`` → ``_dispatch`` (which hops to the executor for
    ``_execute_op``) → ``encode_frame``, with no other task scheduled
    between the three steps of one frame on the loop thread. The probe
    uses that order to time each data frame from the start of its
    decode to the end of its encode, and the executor hop from the end
    of its decode to the start of the target call.
    """

    def __init__(self, tracer: Tracer):
        from repro.distributed import rpc

        self.tracer = tracer
        self.rpc = rpc
        # Updated on the loop thread only; executor threads add their
        # hop times to their own span buffer's counts.
        self.frames = 0
        self.frame_ns = 0
        self._decoded = (0, 0, 0)  # (start, end, msg_id) of the last decode
        self._finished_start = None  # decode start of the frame just dispatched
        self._hop_from: Dict[int, tuple] = {}  # id(target) -> (decode end, op)
        self._conn_ids: Dict[int, int] = {}
        self._originals: Dict[str, Any] = {}
        self._server_cls = next(
            k for k in rpc.RPCServer.__mro__ if "_dispatch" in k.__dict__
        )
        self._codec = tracer.name_id("protocol.codec")
        self._target = tracer.name_id("rpc.target")

    def install(self) -> None:
        """Patch the server's codec calls, dispatch and target call."""
        rpc = self.rpc
        probe = self
        tracer = self.tracer
        now = time.perf_counter_ns
        orig = self._originals
        for name in ("decode_frame", "decode_kv", "encode_frame", "_execute_op"):
            orig[name] = getattr(rpc, name)
        orig["_dispatch"] = self._server_cls.__dict__["_dispatch"]

        def decode_frame(*args):
            start = now()
            result = orig["decode_frame"](*args)
            end = now()
            tracer.buffer().record(probe._codec, start, end)
            probe._decoded = (start, end, result[0])
            return result

        def decode_kv(*args):
            start = now()
            result = orig["decode_kv"](*args)
            tracer.buffer().record(probe._codec, start, now())
            return result

        def encode_frame(*args):
            start = now()
            result = orig["encode_frame"](*args)
            end = now()
            tracer.buffer().record(probe._codec, start, end)
            if probe._finished_start is not None:
                probe.frames += 1
                probe.frame_ns += end - probe._finished_start
                probe._finished_start = None
            return result

        async def dispatch(server, conn, code, body):
            decode_start, decode_end, msg_id = probe._decoded
            data_op = code in rpc.CODE_TO_OP and conn.target is not None
            if data_op:
                conn_no = probe._conn_ids.setdefault(id(conn), len(probe._conn_ids))
                probe._hop_from[id(conn.target)] = (decode_end, conn_no << 32 | msg_id)
            result = await orig["_dispatch"](server, conn, code, body)
            if data_op:
                probe._finished_start = decode_start
            return result

        def execute_op(target, op, key, value):
            start = now()
            hop_from, op_id = probe._hop_from.pop(id(target), (start, -1))
            buf = tracer.buffer()
            buf.counts["rpc.hop_ns"] += start - hop_from
            buf.op = op_id
            index = buf.open(probe._target)
            try:
                return orig["_execute_op"](target, op, key, value)
            finally:
                buf.stack.pop()
                buf.starts[index] = start
                buf.ends[index] = now()

        rpc.decode_frame = decode_frame
        rpc.decode_kv = decode_kv
        rpc.encode_frame = encode_frame
        rpc._execute_op = execute_op
        self._server_cls._dispatch = dispatch

    def uninstall(self) -> None:
        """Restore the patched functions."""
        for name in ("decode_frame", "decode_kv", "encode_frame", "_execute_op"):
            setattr(self.rpc, name, self._originals[name])
        self._server_cls._dispatch = self._originals["_dispatch"]

    def summary(self, agg: Aggregate) -> Dict[str, float]:
        """Frame-level sums for the client to combine."""
        return {
            "frames": self.frames,
            "frame_ns": self.frame_ns,
            "hop_ns": self.tracer.counts().get("rpc.hop_ns", 0),
            "codec_ns": agg.total_ns["protocol.codec"],
            "target_ns": agg.total_ns["rpc.target"],
        }


def rpc_layer_metrics(
    agg: Aggregate, server: Dict[str, float]
) -> Dict[str, float]:
    """Combine client spans with the server's frame sums."""
    calls = agg.count.get("rpc.client_call", 0)
    frames = server["frames"]
    frame_us = ratio(server["frame_ns"], frames) / 1000.0
    client_call_us = agg.mean_us("rpc.client_call")
    return {
        "rpc.client_call_us": client_call_us,
        "rpc.server_self_us": ratio(
            server["frame_ns"] - server["codec_ns"] - server["target_ns"], frames
        )
        / 1000.0,
        "rpc.target_us": ratio(server["target_ns"], frames) / 1000.0,
        "rpc.executor_hop_us": ratio(server["hop_ns"], frames) / 1000.0,
        "rpc.wire_us": client_call_us - frame_us,
        "protocol.codec_us": ratio(
            agg.total_ns["protocol.codec"] + server["codec_ns"], calls
        )
        / 1000.0,
        "rpc.frames_per_op": ratio(frames, calls),
    }
