"""Asyncio RPC serving layer: ``uuidp serve`` and its client library.

This module promotes the in-process serving stack behind a real
network boundary so the ops/s and p99 numbers of the workload driver
include what production numbers include: syscalls, serialization, and
slow clients. Three layers:

:class:`RPCServer`
    An asyncio TCP server speaking the framed protocol of
    :mod:`repro.distributed.protocol`. Each connection ``ATTACH``-es as
    one driver shard; the server builds that shard's **private** target
    (a :class:`~repro.distributed.cluster.ClusterSimulator` fleet or a
    single MiniRocks) from its configured factory — the same
    ``TargetFactory`` contract the in-process driver uses, which is why
    a network run reproduces an in-process run bit-for-bit. Every op
    runs directly on the event loop: targets are in-memory (durable
    ones sit on :class:`~repro.kvstore.storage.SimulatedStorage`, whose
    fsync is bookkeeping), so an op is microseconds of Python that a
    thread hop would only add to. Each connection's frames run strictly
    in order (the determinism contract needs ordered execution;
    pipelining still overlaps client-side RTT). Responses are written
    under a bounded transport write-buffer high-water mark and
    ``drain()`` — a client that stops reading stalls *its own*
    connection via TCP backpressure instead of growing server memory.

:class:`RPCClient`
    The async client: request pipelining over one connection with a
    per-connection in-flight cap (a semaphore — backpressure, not an
    unbounded queue), per-op timeouts that surface as
    :class:`~repro.errors.RPCTimeoutError` (a
    ``ClusterUnavailableError``), and bounded connect retries on a
    **jitterless, deterministic** doubling backoff so test runs are
    reproducible.

:class:`NetworkTarget` / :func:`network_target_factory`
    The synchronous facade :class:`~repro.workloads.driver.WorkloadDriver`
    shards drive: each target owns a background event loop thread and
    one attached connection, and exposes ``execute(op, key, value)``
    (whole logical ops — ``rmw`` is one RPC) plus ``kill``/``recover``
    so chaos schedules fire through the RPC boundary.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import threading
from typing import Any, Callable, Dict, Optional, Tuple

from repro.distributed.protocol import (
    CODE_TO_OP,
    DEFAULT_MAX_FRAME,
    OP_ATTACH,
    OP_KILL,
    OP_RECOVER,
    OP_REPORT,
    OP_TO_CODE,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_PROTOCOL,
    STATUS_UNAVAILABLE,
    decode_attach,
    decode_frame,
    decode_kv,
    decode_node,
    encode_attach,
    encode_frame,
    encode_kv,
    encode_node,
    read_frame,
)
from repro.errors import (
    ClusterUnavailableError,
    ConfigurationError,
    ReproError,
    RPCConnectionError,
    RPCError,
    RPCProtocolError,
    RPCTimeoutError,
)

#: Default per-op client timeout (seconds). Generous: loopback ops are
#: microseconds; this exists so a hung server fails red, not black.
DEFAULT_OP_TIMEOUT = 30.0
#: Default per-connection pipelining cap (requests in flight).
DEFAULT_MAX_IN_FLIGHT = 32
#: Server-side transport write-buffer high-water mark (bytes): the
#: slow-client bound. ``drain()`` parks the connection handler until
#: the peer reads the buffer back under this.
DEFAULT_WRITE_BUFFER_HIGH = 64 * 1024
#: Deterministic connect-retry schedule: ``backoff * 2**attempt``
#: seconds, no jitter (reproducibility beats thundering-herd manners in
#: a test harness).
DEFAULT_CONNECT_RETRIES = 5
DEFAULT_CONNECT_BACKOFF = 0.05

#: Seam for tests to observe/neutralize backoff sleeps.
_sleep = asyncio.sleep


def _execute_op(target: Any, op: str, key: bytes, value: bytes) -> bytes:
    # Deferred import: workloads.driver imports distributed.cluster;
    # importing it at module top would still be acyclic today, but the
    # lazy import keeps protocol/server importable without dragging in
    # the whole workload stack.
    from repro.workloads.driver import execute_op

    return execute_op(target, op, key, value)


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------


class _Connection:
    """Per-connection server state: the attached shard target."""

    __slots__ = ("target",)

    def __init__(self) -> None:
        self.target: Any = None


class RPCServer:
    """Asyncio TCP server wrapping per-shard storage targets.

    Target calls (``ATTACH``'s factory call, data ops, kill/recover and
    reports) run on the event loop itself; each connection's frames
    still execute strictly in order, one at a time.

    Parameters
    ----------
    target_factory:
        ``(shard, shard_seed) -> target`` — the same contract as the
        driver's :data:`~repro.workloads.driver.TargetFactory`; called
        once per connection on ``ATTACH``.
    max_frame:
        Frame-size cap; a larger length prefix is a protocol error and
        closes the offending connection before any allocation.
    write_buffer_high:
        Transport write-buffer high-water mark — the per-connection
        bound on buffered response bytes for a slow client.
    """

    def __init__(
        self,
        target_factory: Callable[[int, int], Any],
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
        write_buffer_high: int = DEFAULT_WRITE_BUFFER_HIGH,
    ) -> None:
        self._target_factory = target_factory
        self.max_frame = max_frame
        self.write_buffer_high = write_buffer_high
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: set = set()
        # Observability counters (read by tests and ops alike).
        self.connections_opened = 0
        self.frames_served = 0
        self.protocol_errors = 0
        #: Largest transport write buffer observed right after a
        #: response write — the slow-client test asserts this stays
        #: under ``write_buffer_high`` + one frame.
        self.peak_write_buffer = 0

    # -- lifecycle ----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start listening (port 0 picks a free port)."""
        self._server = await asyncio.start_server(self._handle, host, port)

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (port 0 resolves here)."""
        if self._server is None or not self._server.sockets:
            raise RPCError("server is not listening")
        return self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        """Serve until cancelled; requires :meth:`start` first."""
        if self._server is None:
            raise RPCError("call start() first")
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop listening and close every open client connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._writers):
            writer.close()

    # -- connection handling ------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_opened += 1
        self._writers.add(writer)
        transport = writer.transport
        transport.set_write_buffer_limits(high=self.write_buffer_high)
        conn = _Connection()
        try:
            while True:
                frame = await read_frame(reader, self.max_frame)
                if frame is None:
                    break  # clean close
                msg_id, code, body = decode_frame(frame)
                status, payload = await self._dispatch(conn, code, body)
                writer.write(encode_frame(msg_id, status, payload))
                buffered = transport.get_write_buffer_size()
                if buffered > self.peak_write_buffer:
                    self.peak_write_buffer = buffered
                await writer.drain()
                self.frames_served += 1
                if status == STATUS_PROTOCOL:
                    self.protocol_errors += 1
                    break  # the peer speaks garbage; cut it loose
        except RPCProtocolError as exc:
            # Truncated/oversized/mid-frame garbage: answer (best
            # effort, msg_id 0 — the frame it belongs to never fully
            # arrived) and close this connection only.
            self.protocol_errors += 1
            with contextlib.suppress(Exception):  # noqa: REPRO402 -- best-effort farewell on an already-counted protocol error; the peer may be gone
                writer.write(
                    encode_frame(0, STATUS_PROTOCOL, str(exc).encode())
                )
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer vanished; nothing to answer
        finally:
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(
        self, conn: _Connection, code: int, body: bytes
    ) -> Tuple[int, bytes]:
        """Execute one request; returns ``(status, payload)``.

        Protocol violations come back as ``STATUS_PROTOCOL`` (the
        caller closes the connection after answering); execution
        failures map to ``STATUS_UNAVAILABLE`` (quorum-class, the
        client re-raises ``ClusterUnavailableError``) or
        ``STATUS_ERROR`` (everything else). Nothing here awaits, but it
        stays a coroutine: perfbench's ``ServerFrameProbe`` wraps it by
        name and awaits it.
        """
        try:
            if code == OP_ATTACH:
                if conn.target is not None:
                    return STATUS_PROTOCOL, b"connection already attached"
                shard, shard_seed = decode_attach(body)
                conn.target = self._target_factory(shard, shard_seed)
                return STATUS_OK, b""
            if conn.target is None:
                return STATUS_PROTOCOL, b"op before ATTACH"
            if code in CODE_TO_OP:
                key, value = decode_kv(body)
                return STATUS_OK, _execute_op(
                    conn.target, CODE_TO_OP[code], key, value
                )
            if code in (OP_KILL, OP_RECOVER):
                node = decode_node(body)
                method = getattr(
                    conn.target, "kill" if code == OP_KILL else "recover", None
                )
                if method is None:
                    return (
                        STATUS_ERROR,
                        b"target is not fault-injectable (no kill/recover)",
                    )
                method(node)
                return STATUS_OK, b""
            if code == OP_REPORT:
                payload = _report_payload(conn.target)
                return STATUS_OK, json.dumps(payload).encode()
            return STATUS_PROTOCOL, f"unknown op code {code:#04x}".encode()
        except RPCProtocolError as exc:
            return STATUS_PROTOCOL, str(exc).encode()
        except ClusterUnavailableError as exc:
            return STATUS_UNAVAILABLE, str(exc).encode()
        except Exception as exc:  # noqa: BLE001 — a shard must not down the server
            return STATUS_ERROR, f"{type(exc).__name__}: {exc}".encode()


def _report_payload(target: Any) -> Dict[str, Any]:
    """Flush + report a connection's target as a JSON-ready dict.

    The network collect counterpart of
    :func:`repro.workloads.driver.flush_and_report`.
    """
    if hasattr(target, "flush_all"):  # a ClusterSimulator
        target.flush_all()
        return target.report().to_dict()
    target.flush()  # a bare MiniRocks store
    stats = target.stats
    return {
        "kind": "store",
        "puts": stats.puts,
        "gets": stats.gets,
        "deletes": stats.deletes,
        "scans": stats.scans,
        "flushes": stats.flushes,
        "compactions": stats.compactions,
    }


# ---------------------------------------------------------------------------
# Async client
# ---------------------------------------------------------------------------


class RPCClient:
    """One pipelined connection to an :class:`RPCServer`.

    ``call`` may be invoked concurrently from many tasks; up to
    ``max_in_flight`` requests ride the wire at once (the semaphore is
    the client-side backpressure — callers park instead of queueing
    unboundedly) and responses are matched to callers by ``msg_id``.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        timeout: Optional[float] = DEFAULT_OP_TIMEOUT,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        max_frame: int = DEFAULT_MAX_FRAME,
    ) -> None:
        if max_in_flight < 1:
            raise ConfigurationError("max_in_flight must be >= 1")
        self._reader = reader
        self._writer = writer
        self.timeout = timeout
        self.max_frame = max_frame
        self._in_flight = asyncio.Semaphore(max_in_flight)
        self._ids = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}
        self._dead: Optional[Exception] = None
        self._read_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        timeout: Optional[float] = DEFAULT_OP_TIMEOUT,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        max_frame: int = DEFAULT_MAX_FRAME,
        retries: int = DEFAULT_CONNECT_RETRIES,
        backoff: float = DEFAULT_CONNECT_BACKOFF,
    ) -> "RPCClient":
        """Connect with bounded, jitterless deterministic backoff.

        Attempt ``k`` (0-based) sleeps ``backoff * 2**k`` seconds after
        failing — the same schedule every run, so tests that race a
        server start are reproducible.
        """
        last: Optional[Exception] = None
        for attempt in range(retries + 1):
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except OSError as exc:
                last = exc
                if attempt == retries:
                    break
                await _sleep(backoff * (2 ** attempt))
                continue
            return cls(
                reader,
                writer,
                timeout=timeout,
                max_in_flight=max_in_flight,
                max_frame=max_frame,
            )
        raise RPCConnectionError(
            f"cannot connect to {host}:{port} after {retries + 1} "
            f"attempt(s): {last}"
        )

    # -- plumbing -----------------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while True:
                frame = await read_frame(self._reader, self.max_frame)
                if frame is None:
                    raise RPCConnectionError("server closed the connection")
                msg_id, status, payload = decode_frame(frame)
                future = self._pending.pop(msg_id, None)
                if future is not None and not future.done():
                    future.set_result((status, payload))
                # else: a response to a timed-out (abandoned) call.
        except Exception as exc:  # noqa: BLE001 — fan the failure out
            self._dead = (
                exc
                if isinstance(exc, ClusterUnavailableError)
                else RPCConnectionError(f"connection lost: {exc}")
            )
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(self._dead)
            self._pending.clear()

    async def _call_raw(self, code: int, body: bytes) -> bytes:
        async with self._in_flight:
            if self._dead is not None:
                raise self._dead
            msg_id = next(self._ids)
            future = asyncio.get_running_loop().create_future()
            self._pending[msg_id] = future
            self._writer.write(
                encode_frame(msg_id, code, body, self.max_frame)
            )
            await self._writer.drain()
            try:
                if self.timeout is None:
                    status, payload = await future
                else:
                    status, payload = await asyncio.wait_for(
                        future, self.timeout
                    )
            except asyncio.TimeoutError:
                self._pending.pop(msg_id, None)
                raise RPCTimeoutError(
                    f"op {code:#04x} timed out after {self.timeout}s "
                    "(unacknowledged; treated as a failed op)"
                ) from None
        if status == STATUS_OK:
            return payload
        message = payload.decode("utf-8", "replace")
        if status == STATUS_UNAVAILABLE:
            raise ClusterUnavailableError(message)
        if status == STATUS_PROTOCOL:
            raise RPCProtocolError(f"server: {message}")
        raise RPCError(message)

    # -- API ----------------------------------------------------------------

    async def attach(self, shard: int, shard_seed: int) -> None:
        """Bind this connection to a driver shard and its derived seed."""
        await self._call_raw(OP_ATTACH, encode_attach(shard, shard_seed))

    async def call(self, op: str, key: bytes, value: bytes) -> bytes:
        """Execute one logical op; returns its outcome digest bytes."""
        code = OP_TO_CODE.get(op)
        if code is None:
            raise ConfigurationError(f"unknown workload op {op!r}")
        return await self._call_raw(code, encode_kv(key, value))

    async def kill(self, node: int) -> None:
        """Inject a node outage on the remote cluster."""
        await self._call_raw(OP_KILL, encode_node(node))

    async def recover(self, node: int) -> None:
        """Recover a previously killed remote node."""
        await self._call_raw(OP_RECOVER, encode_node(node))

    async def report(self) -> Dict[str, Any]:
        """Flush the remote target and fetch its report dict."""
        return json.loads(await self._call_raw(OP_REPORT, b""))

    async def aclose(self) -> None:
        """Cancel the reader task and close the connection."""
        self._read_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._read_task
        self._writer.close()
        with contextlib.suppress(Exception):
            await self._writer.wait_closed()


# ---------------------------------------------------------------------------
# Synchronous facade for the workload driver
# ---------------------------------------------------------------------------


class _LoopThread:
    """A daemon thread running a private event loop; sync callers
    submit coroutines and block on their results."""

    def __init__(self, name: str) -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, name=name, daemon=True
        )
        self._thread.start()

    def run(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result()

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5)
        if not self.loop.is_running():
            self.loop.close()


class NetworkTarget:
    """One driver shard's view of a remote ``uuidp serve`` instance.

    Synchronous by design — :class:`~repro.workloads.driver.WorkloadDriver`
    shards are plain threads — but built on the async
    :class:`RPCClient` running in a private background event loop.
    ``execute`` ships whole logical ops (``rmw`` included) and returns
    the server-computed outcome digest, so driver fingerprints over a
    network run match the in-process run byte for byte.
    """

    def __init__(
        self,
        host: str,
        port: int,
        shard: int,
        shard_seed: int,
        *,
        timeout: Optional[float] = DEFAULT_OP_TIMEOUT,
    ) -> None:
        self._loop = _LoopThread(f"uuidp-client-shard{shard}")
        # Everything connect/attach can raise: library errors
        # (RPCConnectionError and friends), socket failures, and a loop
        # that refused to start. Release what was opened, then let the
        # caller see the original failure.
        try:
            self._client = self._loop.run(
                RPCClient.connect(host, port, timeout=timeout)
            )
        except (ReproError, OSError, RuntimeError):
            self._loop.stop()
            raise
        try:
            self._loop.run(self._client.attach(shard, shard_seed))
        except (ReproError, OSError, RuntimeError):
            self.close()
            raise

    def execute(self, op: str, key: bytes, value: bytes) -> bytes:
        """One logical op over the wire; the driver's ``execute_op``
        dispatches here."""
        return self._loop.run(self._client.call(op, key, value))

    # Chaos injection through the RPC boundary (driver tick() hooks).
    def kill(self, node: int, mode: str = "outage") -> None:
        """Inject a remote node outage (the only network chaos mode)."""
        if mode != "outage":
            raise ConfigurationError(
                f"network targets only support kill(mode='outage'); "
                f"crash-restart chaos (mode={mode!r}) needs an "
                "in-process durable cluster target"
            )
        self._loop.run(self._client.kill(node))

    def recover(self, node: int) -> None:
        """Recover a remote node killed through this target."""
        self._loop.run(self._client.recover(node))

    def collect_report(self) -> Dict[str, Any]:
        """Flush the remote target and fetch its report dict."""
        return self._loop.run(self._client.report())

    def close(self) -> None:
        """Close the RPC client and stop the private event loop."""
        with contextlib.suppress(Exception):
            self._loop.run(self._client.aclose())
        self._loop.stop()


def network_target_factory(
    host: str,
    port: int,
    *,
    timeout: Optional[float] = DEFAULT_OP_TIMEOUT,
):
    """A driver ``TargetFactory`` whose shards dial a remote server.

    The ``(shard, shard_seed)`` pair rides the ``ATTACH`` frame, so the
    server builds exactly the target the in-process driver would have
    built — the op streams are generated client-side from the same
    seeds, the outcomes are digested server-side by the same
    ``execute_op``, and the fingerprints match bit for bit.
    """

    def factory(shard: int, shard_seed: int) -> NetworkTarget:
        return NetworkTarget(host, port, shard, shard_seed, timeout=timeout)

    return factory


def network_flush_and_report(target: NetworkTarget) -> Dict[str, Any]:
    """The network counterpart of
    :func:`~repro.workloads.driver.flush_and_report`: flush + report
    the remote target, then close the shard's connection (the collect
    callback is the driver's end-of-shard hook, so this is where the
    socket and its loop thread are torn down)."""
    try:
        return target.collect_report()
    finally:
        target.close()


# ---------------------------------------------------------------------------
# In-process background server (tests, benchmarks, examples)
# ---------------------------------------------------------------------------


class ServerThread:
    """An :class:`RPCServer` running on a private loop thread.

    The serving loop stays fully async; this wrapper only exists so
    synchronous harnesses (pytest, benchmarks, the example script) can
    stand a real TCP server up over loopback without managing asyncio
    themselves. Context-manager friendly::

        with ServerThread(store_target_factory(options)) as handle:
            host, port = handle.address
            ...
    """

    def __init__(
        self,
        target_factory: Callable[[int, int], Any],
        host: str = "127.0.0.1",
        port: int = 0,
        **server_kwargs: Any,
    ) -> None:
        self.server = RPCServer(target_factory, **server_kwargs)
        self._loop = _LoopThread("uuidp-serve")
        try:
            self._loop.run(self.server.start(host, port))
        except (ReproError, OSError, RuntimeError):
            # Bind/listen failures (port in use, bad host) and loop
            # startup errors; stop the thread and re-raise.
            self._loop.stop()
            raise
        self.address: Tuple[str, int] = self._loop.run(
            _async_address(self.server)
        )

    def stop(self) -> None:
        """Shut the in-process server down and stop its event loop."""
        with contextlib.suppress(Exception):
            self._loop.run(self.server.aclose())
        self._loop.stop()

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


async def _async_address(server: RPCServer) -> Tuple[str, int]:
    return server.address
