"""Workload ``kv-cluster-rf3``: an in-process quorum-replicated cluster.

Four nodes, RF=3 with majority quorums, default ``Options`` and the
default 8192-block shared cache. Set-up bulk-loads 40k records with
100-byte values; the measured phase runs a YCSB-A stream (50% get, 50%
update, scrambled Zipfian theta=0.99) from one thread with one op in
flight. Each get reads 2 replicas and each put writes 3, so every
cluster, ring, node and MiniRocks read and write path runs, including
flush, compaction and file-ID minting.
"""

from __future__ import annotations

import gc
import time
from typing import List, Optional

from perfbench.host import GCMeter, HostReference
from perfbench.inputs import check_gets, make_kv_inputs
from perfbench.layers import add_kv_layers, kv_layer_metrics
from perfbench.measure import ChunkClock, Config, Result, SetupTimer, own_peak_rss_mb
from perfbench.stats import Series
from perfbench.trace import Tracer

NODES = 4
REPLICATION = 3
RECORDS = 40_000
#: Ops materialized before timing; the stream repeats if a run outlasts it.
STREAM_OPS = 120_000
CHUNK_OPS = 1_000
GET_FRACTION = 0.5
#: Records loaded per timed set-up step (about a measured chunk's time).
LOAD_STEP = 2_000
#: Fresh processes whose set-up is timed.
SETUP_REPEATS = 5
#: End-to-end metrics published raw (none: scaling narrows them all).
RAW_METRICS = ()


def setup(config: Config, timer: SetupTimer):
    """Everything before the first measured op: the imports, the inputs,
    and a cluster holding every record, loaded in timed steps of
    :data:`LOAD_STEP` records."""
    with timer.step():
        from repro.distributed.cluster import ClusterSimulator
        from repro.kvstore.options import Options
    with timer.step():
        inputs = make_kv_inputs(
            config.seed, "kv-cluster-rf3", RECORDS, STREAM_OPS, GET_FRACTION
        )
    with timer.step():
        sim = ClusterSimulator(
            NODES, Options, seed=config.seed, replication_factor=REPLICATION
        )
    put = sim.put
    for start in range(0, RECORDS, LOAD_STEP):
        with timer.step():
            for key, value in inputs.records[start:start + LOAD_STEP]:
                put(key, value)
    return inputs, sim


def close(state) -> None:
    """Nothing to release: the cluster lives in this process's memory."""


def run(config: Config) -> Result:
    """Set up, measure and check; see the module docstring."""
    from repro.distributed.migration import audit_id_uniqueness
    from repro.errors import ClusterUnavailableError

    inputs, sim = setup(config, SetupTimer())
    ref = HostReference()
    tracer = Tracer()
    if config.trace:
        add_kv_layers(tracer, cluster=True)
    expected = dict(inputs.records)
    a, b = Series(990_000), Series(999_000)
    problems: List[str] = []
    attempted = failed = 0
    traced_op_ns = 0
    evictions_before = sim.cache.stats.evictions
    repairs_before = sim.read_repairs
    get, put = sim.get, sim.put
    now = time.perf_counter_ns
    gc.collect()
    with GCMeter() as gc_meter:
        clock = ChunkClock(ref, config.seconds, config.trace)
        position = 0
        while clock.more():
            ops = inputs.ops[position:position + CHUNK_OPS]
            position = (position + CHUNK_OPS) % STREAM_OPS
            got: List[Optional[bytes]] = [None] * len(ops)
            lat = [0] * len(ops)
            tracing = clock.tracing
            if tracing:
                tracer.install()
                get, put = sim.get, sim.put
            else:
                gc_meter.active = True
            start = now()
            for index, (is_get, key, value) in enumerate(ops):
                if tracing:
                    tracer.set_op(attempted + index)
                begin = now()
                try:
                    if is_get:
                        got[index] = get(key)
                    else:
                        put(key, value)
                except ClusterUnavailableError:
                    failed += 1
                lat[index] = now() - begin
            elapsed = now() - start
            gc_meter.active = False
            if tracing:
                tracer.uninstall()
                get, put = sim.get, sim.put
                traced_op_ns += sum(lat)
            attempted += len(ops)
            factor = clock.finish_chunk(elapsed, len(ops))
            if not tracing:
                a.extend([lat[i] / 1000.0 for i, op in enumerate(ops) if op[0]], factor)
                b.extend([lat[i] / 1000.0 for i, op in enumerate(ops) if not op[0]], factor)
            check_gets(ops, got, expected, problems)
    audit = audit_id_uniqueness(sim.nodes)
    if audit.collided:
        problems.append(f"{audit.collision_count} file-ID collision(s)")
    result = Result(
        kind_names=("get", "put"),
        clock=clock,
        a=a,
        b=b,
        peak_rss_mb=own_peak_rss_mb(),
        attempted=attempted,
        failed=failed,
        problems=problems,
        gc_ns=gc_meter.ns,
        traced_op_ns=traced_op_ns,
    )
    if config.trace:
        agg = tracer.aggregate()
        result.layers.update(kv_layer_metrics(agg, tracer.counts()))
        result.layers.update({
            "cluster.read_repairs": sim.read_repairs - repairs_before,
            "cache.evictions": sim.cache.stats.evictions - evictions_before,
            "compaction.time_share": agg.total_ns["compaction"] / traced_op_ns,
            "idgen.id_collisions": audit.collision_count,
        })
        result.covered_ns = agg.total_ns["cluster.get"] + agg.total_ns["cluster.put"]
        result.tracer = tracer
    return result
