"""The ``kv-network`` server process: ``uuidp serve --target store``.

Runs the library's own ``serve`` subcommand in this process and only
observes it: the served stores and the ``RPCServer`` are recorded as
they are created, so that on shutdown (SIGINT, which the subcommand
handles) this script can print one ``perfbench-serve: {json}`` line with
the server's protocol-error count, frames served, file-ID collisions and
peak resident memory.

The process exits at once when its stdin reaches end-of-file, which
happens when the benchmark process that started it dies.

With ``--trace 1`` SIGUSR1 installs the span wrappers (kvstore layers,
RPC frame probe) and SIGUSR2 removes them; each toggle is acknowledged
with a ``perfbench-serve: trace on|off`` line, and the spans are written
to ``--spans`` at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    from perfbench.measure import own_peak_rss_mb
    from repro import cli
    from repro.distributed import rpc
    from repro.workloads import driver

    servers = []
    stores = []
    serve_factory = driver.store_target_factory

    class ObservedServer(rpc.RPCServer):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            servers.append(self)

    def observed_store_factory(*a, **kw):
        factory = serve_factory(*a, **kw)

        def build(shard, shard_seed):
            store = factory(shard, shard_seed)
            stores.append(store)
            return store

        return build

    rpc.RPCServer = ObservedServer
    driver.store_target_factory = observed_store_factory

    tracer = probe = None
    if args.trace:
        from perfbench.layers import ServerFrameProbe, add_kv_layers
        from perfbench.trace import Tracer

        tracer = Tracer()
        add_kv_layers(tracer, cluster=False)
        probe = ServerFrameProbe(tracer)

        def trace_on(signum, frame):
            tracer.install()
            probe.install()
            print("perfbench-serve: trace on", flush=True)

        def trace_off(signum, frame):
            probe.uninstall()
            tracer.uninstall()
            print("perfbench-serve: trace off", flush=True)

        signal.signal(signal.SIGUSR1, trace_on)
        signal.signal(signal.SIGUSR2, trace_off)

    def exit_with_parent():
        while os.read(0, 4096):
            pass
        os._exit(3)

    threading.Thread(target=exit_with_parent, daemon=True).start()
    code = cli.main(
        ["serve", "--target", "store", "--host", "127.0.0.1", "--port", "0"]
    )
    ids = Counter()
    for store in stores:
        ids.update(store.assigned_file_ids())
    summary = {
        "exit_code": code,
        "protocol_errors": sum(s.protocol_errors for s in servers),
        "frames_served": sum(s.frames_served for s in servers),
        "id_collisions": sum(n - 1 for n in ids.values() if n > 1),
        "cache_evictions": sum(s.cache.stats.evictions for s in stores),
        "peak_rss_mb": own_peak_rss_mb(),
    }
    if tracer is not None:
        from perfbench.layers import kv_layer_metrics

        agg = tracer.aggregate()
        summary["layers"] = kv_layer_metrics(agg, tracer.counts())
        summary["probe"] = probe.summary(agg)
        if args.spans is not None:
            tracer.dump(args.spans)
    print("perfbench-serve: " + json.dumps(summary), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
