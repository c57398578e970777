"""Workload ``kv-network``: ``uuidp serve --target store`` over loopback.

The server runs as its own process (``perfbench/serve.py``). This
process drives it through the library's async ``RPCClient`` over two
connections; each attaches as its own shard (a private MiniRocks with
the default 4096-block cache) and loads 10k records. On a host with two
or more CPUs the server is pinned to one core and this process to
another, so neither migrates or competes with the other for a core, and
the reference kernel is timed on both cores.
The measured phase keeps 4 requests in flight per connection on a
YCSB-B stream (95% get, 5% update, scrambled Zipfian theta=0.99).
RPC framing and thread hops dominate this path and the store barely
writes: it is the read-heavy, network-bound counterpart of
``kv-cluster-rf3``.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from perfbench.host import CoresReference, GCMeter, HostReference
from perfbench.inputs import KVInputs, check_gets, make_kv_inputs, sub_rng
from perfbench.layers import add_rpc_client_layers, rpc_layer_metrics
from perfbench.measure import ChunkClock, Config, Result, SetupTimer
from perfbench.stats import Series
from perfbench.trace import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONNECTIONS = 2
IN_FLIGHT = 4
RECORDS = 10_000
STREAM_OPS = 60_000
CHUNK_OPS = 1_000  # per connection
GET_FRACTION = 0.95
#: Fresh processes whose set-up is timed (each starts a server).
SETUP_REPEATS = 3
#: End-to-end metrics published raw (none: see the README on the tails).
RAW_METRICS = ()
#: Seconds to wait for the server to start, answer a toggle, or exit.
SERVER_TIMEOUT = 60.0

#: Status byte the server puts before a found value.
_FOUND = b"\x01"


def _cores() -> List[int]:
    """Two CPUs for the client and the server, if this host has them."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[:2] if len(cpus) >= 2 else []


class ServerProcess:
    """One ``perfbench/serve.py`` child and its stdout protocol.

    The child exits by itself if this process dies: it watches its
    stdin, which only this process holds open.
    """

    def __init__(self, trace: bool, spans: Optional[Path], core: Optional[int]):
        command = [sys.executable, str(HERE / "serve.py"), "--trace", str(int(trace))]
        if spans is not None:
            command += ["--spans", str(spans)]
        self.proc = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, bufsize=0,
        )
        try:
            if core is not None:
                os.sched_setaffinity(self.proc.pid, {core})
            line = self._expect(b"uuidp serve: listening on ")
            address = line.split(b"listening on ", 1)[1].split()[0].decode()
            host, port = address.rsplit(":", 1)
            self.address = (host, int(port))
        except BaseException:
            self.kill()
            raise

    def _readline(self) -> bytes:
        ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_TIMEOUT)
        if not ready:
            raise RuntimeError("server did not answer in time")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited with code {self.proc.wait()}")
        return line

    def _expect(self, prefix: bytes) -> bytes:
        while True:
            line = self._readline()
            if line.startswith(prefix):
                return line

    def toggle_trace(self, on: bool) -> None:
        """Install or remove the server's span wrappers; waits for the ack."""
        self.proc.send_signal(signal.SIGUSR1 if on else signal.SIGUSR2)
        self._expect(b"perfbench-serve: trace " + (b"on" if on else b"off"))

    def stop(self) -> Dict:
        """SIGINT the server and return its exit summary."""
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=SERVER_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            return {}
        out = self.proc.stdout.read()
        self.proc.stdin.close()
        self.proc.stdout.close()
        for line in reversed(out.splitlines()):
            if line.startswith(b"perfbench-serve: {"):
                return json.loads(line.split(b": ", 1)[1])
        return {}

    def kill(self) -> None:
        """Kill the server and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


async def _run_window(client, ops, got, lat, failures: List[int]) -> None:
    """Run ``ops`` in order with :data:`IN_FLIGHT` requests outstanding.

    Each worker takes the next index and writes its frame before
    yielding, so frames reach the server (which runs one connection's
    frames strictly in order) in index order.
    """
    from repro.errors import ReproError

    position = 0
    call = client.call
    now = time.perf_counter_ns

    async def worker():
        nonlocal position
        while position < len(ops):
            index = position
            position += 1
            is_get, key, value = ops[index]
            begin = now()
            try:
                if is_get:
                    got[index] = await call("get", key, b"")
                else:
                    got[index] = await call("put", key, value)
            except ReproError:
                failures.append(index)
            lat[index] = now() - begin

    await asyncio.gather(*(worker() for _ in range(IN_FLIGHT)))


async def _run_windows(clients, windows, gots, lats, failures) -> None:
    await asyncio.gather(*(
        _run_window(client, ops, got, lat, failures)
        for client, ops, got, lat in zip(clients, windows, gots, lats)
    ))


@dataclass
class Deployment:
    """The inputs, the running server and the loaded connections."""

    shards: List[KVInputs]
    cores: List[int]
    loop: asyncio.AbstractEventLoop
    server: ServerProcess
    clients: List


async def _connect(server: ServerProcess, shards: List[KVInputs], seeds: List[int]):
    """Open and attach one connection per shard, then load its records."""
    from repro.distributed.rpc import RPCClient

    host, port = server.address
    opened = []
    for shard in range(CONNECTIONS):
        client = await RPCClient.connect(host, port)
        await client.attach(shard, seeds[shard])
        opened.append(client)
    failures: List[int] = []
    await asyncio.gather(*(
        _run_window(
            client,
            [(False, key, value) for key, value in inputs.records],
            [None] * RECORDS, [0] * RECORDS, failures,
        )
        for client, inputs in zip(opened, shards)
    ))
    if failures:
        raise RuntimeError(f"{len(failures)} load puts failed")
    return opened


async def _disconnect(clients) -> None:
    for client in clients:
        await client.aclose()
    # Let the server see the connections close before it is stopped.
    await asyncio.sleep(0.2)


def setup(config: Config, timer: SetupTimer) -> Deployment:
    """Everything before the first measured op: the inputs, the server
    (pinned to its own core when there are two), and both connections
    attached and loaded, in three timed steps."""
    with timer.step():
        shards: List[KVInputs] = [
            make_kv_inputs(
                config.seed, f"kv-network-{shard}", RECORDS, STREAM_OPS, GET_FRACTION
            )
            for shard in range(CONNECTIONS)
        ]
    seeds = [sub_rng(config.seed, f"attach-{s}").getrandbits(63) for s in range(CONNECTIONS)]
    spans = ROOT / ".perfbench" / f"spans-kv-network-server-seed{config.seed}.bin"
    cores = _cores()
    if cores:
        os.sched_setaffinity(0, {cores[0]})
    loop = asyncio.new_event_loop()
    server = None
    try:
        with timer.step():
            server = ServerProcess(
                config.trace, spans if config.trace else None,
                cores[1] if cores else None,
            )
        with timer.step():
            clients = loop.run_until_complete(_connect(server, shards, seeds))
    except BaseException:
        if server is not None:
            server.kill()
        loop.close()
        raise
    return Deployment(shards, cores, loop, server, clients)


def close(deployment: Deployment) -> Dict:
    """Close the connections, stop the server and return its exit
    summary (empty if it gave none)."""
    try:
        deployment.loop.run_until_complete(_disconnect(deployment.clients))
        return deployment.server.stop()
    finally:
        deployment.server.kill()
        deployment.loop.close()


def run(config: Config) -> Result:
    """Set up, measure and check; see the module docstring."""
    deployment = setup(config, SetupTimer())
    try:
        cores = deployment.cores
        ref = CoresReference(cores) if cores else HostReference()
        result = _measure(
            config, deployment.loop, deployment.server, deployment.clients,
            deployment.shards, ref,
        )
    except BaseException:
        deployment.server.kill()
        deployment.loop.close()
        raise
    summary = close(deployment)
    if not summary:
        result.problems.append("the server exited without its summary")
        return result
    result.peak_rss_mb = summary["peak_rss_mb"]
    if summary["protocol_errors"]:
        result.problems.append(f"server protocol_errors={summary['protocol_errors']}")
    if summary["id_collisions"]:
        result.problems.append(f"{summary['id_collisions']} file-ID collision(s)")
    if config.trace:
        result.layers.update(summary.get("layers", {}))
        result.layers.update(
            rpc_layer_metrics(result.tracer.aggregate(), summary["probe"])
        )
        result.layers["cache.evictions"] = summary["cache_evictions"]
        result.layers["idgen.id_collisions"] = summary["id_collisions"]
    return result


def _measure(config, loop, server, clients, shards, ref) -> Result:
    tracer = Tracer()
    if config.trace:
        add_rpc_client_layers(tracer)
    expected = [dict(inputs.records) for inputs in shards]
    a, b = Series(900_000), Series(900_000)
    problems: List[str] = []
    attempted = failed = 0
    traced_op_ns = 0
    position = 0
    gc.collect()
    with GCMeter() as gc_meter:
        clock = ChunkClock(ref, config.seconds, config.trace)
        while clock.more():
            windows = [inputs.ops[position:position + CHUNK_OPS] for inputs in shards]
            position = (position + CHUNK_OPS) % STREAM_OPS
            gots = [[None] * len(ops) for ops in windows]
            lats = [[0] * len(ops) for ops in windows]
            failures: List[int] = []
            tracing = clock.tracing
            if tracing:
                server.toggle_trace(True)
                tracer.install()
            else:
                gc_meter.active = True
            start = time.perf_counter_ns()
            loop.run_until_complete(_run_windows(clients, windows, gots, lats, failures))
            elapsed = time.perf_counter_ns() - start
            gc_meter.active = False
            if tracing:
                tracer.uninstall()
                server.toggle_trace(False)
                traced_op_ns += sum(sum(lat) for lat in lats)
            ops_done = sum(len(ops) for ops in windows)
            attempted += ops_done
            failed += len(failures)
            factor = clock.finish_chunk(elapsed, ops_done)
            for ops, got, lat, state in zip(windows, gots, lats, expected):
                if not tracing:
                    a.extend([lat[i] / 1000.0 for i, op in enumerate(ops) if op[0]], factor)
                    b.extend([lat[i] / 1000.0 for i, op in enumerate(ops) if not op[0]], factor)
                check_gets(ops, got, state, problems, found=_FOUND)
    result = Result(
        kind_names=("get", "put"),
        clock=clock,
        a=a,
        b=b,
        peak_rss_mb=0.0,
        attempted=attempted,
        failed=failed,
        problems=problems,
        gc_ns=gc_meter.ns,
        traced_op_ns=traced_op_ns,
    )
    if config.trace:
        result.covered_ns = tracer.aggregate().total_ns["rpc.client_call"]
        result.tracer = tracer
    return result
