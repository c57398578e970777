"""Command-line interface: ``uuidp`` / ``python -m repro.cli``.

Subcommands
-----------
``list``
    Show the available algorithms and experiments.
``generate``
    Emit IDs from one algorithm instance (hex or decimal).
``analyze``
    Exact collision probability of an algorithm on a demand profile.
``simulate``
    Monte-Carlo a profile or an adaptive attack.
``experiment``
    Run one experiment (or ``all``) and print its markdown table.
``kv``
    Drive a YCSB workload (A–F) against a MiniRocks store, a simulated
    cluster, or a remote ``uuidp serve`` instance (``--target network
    --addr HOST:PORT``); report ops/s and p50/p95/p99 latency.
``serve``
    Expose a store or cluster over the asyncio RPC protocol so ``kv``
    (and anything speaking :mod:`repro.distributed.protocol`) can
    drive it over real sockets.
``report``
    Run the full suite and write EXPERIMENTS-style markdown to a file.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.adversary.attacks import ClosestPairAttack, GreedyGapAttack
from repro.adversary.profiles import DemandProfile
from repro.analysis.exact import exact_collision_probability
from repro.core.registry import available_algorithms, make_generator
from repro.errors import ReproError
from repro.experiments import (
    ExperimentConfig,
    experiment_ids,
    run_all,
    run_experiment,
)
from repro.idspace.encoding import id_to_hex
from repro.simulation.batch import AttackFactory, SpecFactory
from repro.simulation.montecarlo import (
    estimate_collision_probability,
    estimate_profile_collision,
)
from repro.simulation.plan import ENGINES, SimulationPlan
from repro.simulation.seeds import rng_for


def _plan_from_args(args: argparse.Namespace) -> SimulationPlan:
    """Build the :class:`SimulationPlan` the plan options describe."""
    return SimulationPlan(
        engine=args.engine,
        workers=args.workers,
        target_halfwidth=args.precision,
        max_trials=args.max_trials,
    )


def _parse_profile(text: str) -> DemandProfile:
    return DemandProfile(tuple(int(x) for x in text.split(",")))


def _cmd_list(_args: argparse.Namespace) -> int:
    print("algorithms:")
    for name in available_algorithms():
        print(f"  {name}")
    print("experiments:")
    from repro.experiments import TITLES

    for eid in experiment_ids():
        print(f"  {eid}: {TITLES[eid]}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    generator = make_generator(args.algorithm, args.m, rng_for(args.seed))
    for _ in range(args.count):
        value = generator.next_id()
        if args.hex:
            print(id_to_hex(value, args.m))
        else:
            print(value)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    profile = _parse_profile(args.profile)
    probability = exact_collision_probability(
        args.algorithm, args.m, profile
    )
    print(
        f"p_{args.algorithm}(D={profile.demands}, m={args.m}) = "
        f"{float(probability):.6g}  (exact: {probability})"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    factory = SpecFactory(args.algorithm)
    if args.attack:
        attack_cls = {
            "closest_pair": ClosestPairAttack,
            "greedy_gap": GreedyGapAttack,
        }[args.attack]
        profile = _parse_profile(args.profile)
        n, d = profile.n, profile.total
        estimate = estimate_collision_probability(
            factory,
            args.m,
            AttackFactory(attack_cls, n=n, d=d),
            trials=args.trials,
            seed=args.seed,
            plan=_plan_from_args(args),
        )
        label = f"{args.attack} attack (n={n}, d={d})"
    else:
        profile = _parse_profile(args.profile)
        estimate = estimate_profile_collision(
            factory,
            args.m,
            profile,
            trials=args.trials,
            seed=args.seed,
            plan=_plan_from_args(args),
        )
        label = f"oblivious profile {profile.demands}"
    print(f"{args.algorithm} vs {label} on m={args.m}: {estimate}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.render import chart_from_result, result_to_json

    config = ExperimentConfig(
        quick=args.quick, seed=args.seed, plan=_plan_from_args(args),
    )
    ids = experiment_ids() if args.id.lower() == "all" else [args.id]
    exit_code = 0
    for eid in ids:
        result = run_experiment(eid, config)
        if args.json:
            print(result_to_json(result))
        else:
            print(result.to_markdown())
        if args.chart:
            x_column, _, y_spec = args.chart.partition(":")
            y_columns = [c for c in y_spec.split(",") if c]
            print(chart_from_result(result, x_column, y_columns))
        if not result.all_passed:
            exit_code = 1
    return exit_code


def _parse_chaos(args: argparse.Namespace):
    """Build the ChaosEvent schedule from --kill-at/--recover-at.

    ``--kill-mode crash`` turns every kill into a process crash
    (memtable dropped, WAL replayed on recover) instead of a clean
    outage; it needs a durable fleet, i.e. ``--write-mode``.
    """
    from repro.workloads.driver import ChaosEvent

    kill_mode = getattr(args, "kill_mode", "outage")
    events = []
    for action, specs in (
        ("kill", args.kill_at or []),
        ("recover", args.recover_at or []),
    ):
        for text in specs:
            at_op, _, node = text.partition(":")
            try:
                events.append(
                    ChaosEvent(
                        at_op=int(at_op),
                        action=action,
                        node=int(node) if node else 0,
                        mode=kill_mode if action == "kill" else "outage",
                    )
                )
            except ValueError:
                raise ReproError(
                    f"--{action}-at wants OP[:NODE] (integers), "
                    f"got {text!r}"
                )
    return tuple(events)


def _parse_addr(text: str):
    """Split ``HOST:PORT`` (IPv6 hosts use the last colon)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ReproError(f"--addr wants HOST:PORT, got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ReproError(f"--addr port must be an integer, got {port!r}")


def _deployment(args: argparse.Namespace):
    """The shard target factory the deployment flags describe, and a
    one-line label for it; shared by ``kv`` and ``serve``."""
    from repro.kvstore.options import Options
    from repro.kvstore.wal import WriteMode
    from repro.workloads.driver import (
        cluster_target_factory,
        store_target_factory,
    )

    durable = args.write_mode is not None
    extra = {"write_mode": WriteMode(args.write_mode)} if durable else {}

    def options() -> Options:
        return Options(
            id_algorithm=args.algorithm,
            id_universe=args.id_universe,
            **extra,
        )

    if args.target == "cluster":
        factory = cluster_target_factory(
            args.nodes,
            options,
            replication_factor=args.replication,
            read_quorum=args.read_quorum,
            durable=durable,
        )
        label = f"cluster, nodes={args.nodes} rf={args.replication}"
    else:
        if args.replication != 1 or args.read_quorum is not None:
            raise ReproError(
                "--replication/--read-quorum need --target cluster"
            )
        factory = store_target_factory(options, durable=durable)
        label = "store"
    if durable:
        label += f", write-mode={args.write_mode}"
    return factory, label


def _cmd_kv(args: argparse.Namespace) -> int:
    """Drive a YCSB workload through the WorkloadDriver."""
    import json

    from repro.distributed.cluster import resolve_quorums
    from repro.distributed.rpc import (
        network_flush_and_report,
        network_target_factory,
    )
    from repro.workloads.driver import (
        DriverConfig,
        WorkloadDriver,
        flush_and_report,
    )
    from repro.workloads.ycsb import WorkloadSpec

    spec = WorkloadSpec(
        workload=args.workload,
        record_count=args.records,
        operation_count=args.ops,
        value_size=args.value_size,
        zipf_theta=args.theta,
        max_scan_length=args.scan_length,
    )

    autoscaler_cfg = None
    if args.autoscale or args.arrival != "static":
        from repro.distributed.autoscaler import AutoscalerConfig
        from repro.workloads.demand import make_arrival

        knobs = {}
        for name in (
            "period", "amplitude", "flash_at", "flash_ticks",
            "peak", "burst_prob", "burst_ticks",
        ):
            value = getattr(args, f"arrival_{name}")
            if value is not None:
                knobs[name] = value
        min_nodes = (
            args.min_nodes
            if args.min_nodes is not None
            else max(1, args.replication)
        )
        if args.autoscale:
            if not min_nodes <= args.nodes <= args.max_nodes:
                raise ReproError(
                    f"--nodes {args.nodes} must start inside "
                    f"[--min-nodes {min_nodes}, --max-nodes "
                    f"{args.max_nodes}]"
                )
            if min_nodes < args.replication:
                raise ReproError(
                    f"--min-nodes {min_nodes} < --replication "
                    f"{args.replication}: scale-down below RF would "
                    "lose replicas (decommission refuses it)"
                )
        autoscaler_cfg = AutoscalerConfig(
            arrival=make_arrival(args.arrival, args.arrival_rate, **knobs),
            slo_p99_ms=args.slo_p99_ms,
            min_nodes=min_nodes,
            max_nodes=args.max_nodes,
            node_capacity=args.node_capacity,
            check_every=args.scale_check_every,
            shed_after_ms=args.shed_after_ms,
            enabled=args.autoscale,
        )

    chaos = _parse_chaos(args)
    # The full resolved deployment rides along in the JSON so the
    # uploaded artifact is self-describing and reproducible.
    deployment = {
        "target": args.target,
        "algorithm": args.algorithm,
        "id_universe": args.id_universe,
        # "memory" = no durable storage layer (the default); otherwise
        # the group-commit WriteMode driven.
        "write_mode": args.write_mode or "memory",
    }
    collect = None
    if args.target == "network":
        if args.addr is None:
            raise ReproError("--target network needs --addr HOST:PORT")
        if (
            args.replication != 1
            or args.read_quorum is not None
            or args.write_mode is not None
        ):
            raise ReproError(
                "--replication/--read-quorum/--write-mode configure the "
                "deployment; with --target network they belong on the "
                "`uuidp serve` command line, not the client"
            )
        host, port = _parse_addr(args.addr)
        factory = network_target_factory(
            host, port, timeout=args.op_timeout
        )
        collect = network_flush_and_report
        deployment.update(addr=args.addr, op_timeout=args.op_timeout)
    else:
        factory, _ = _deployment(args)
    if args.target == "cluster":
        read_q, write_q = resolve_quorums(
            args.nodes, args.replication, args.read_quorum
        )
        # With one node dead a quorum op needs RF-1 >= max(R, W) live
        # replicas on every preference list, which the defaults only
        # satisfy from RF=3 (W is always the majority of RF).
        if any(event.action == "kill" for event in chaos) and (
            args.replication - 1 < max(read_q, write_q)
        ):
            raise ReproError(
                f"a --kill-at schedule with --replication "
                f"{args.replication} makes quorum loss certain "
                f"(RF-1 live replicas < R/W); use --replication 3 "
                f"or higher to tolerate a node death"
            )
        collect = flush_and_report
        deployment.update(
            nodes=args.nodes,
            replication_factor=args.replication,
            read_quorum=read_q,
            write_quorum=write_q,
        )
    config = DriverConfig(
        spec=spec,
        shards=args.shards,
        workers=args.workers,
        warmup_operations=args.warmup,
        seed=args.seed,
        rebalance_every=args.rebalance_every,
        chaos=chaos,
        autoscaler=autoscaler_cfg,
    )
    result = WorkloadDriver(factory, config, collect=collect).run()
    payload = result.to_dict()
    payload["config"].update(deployment)
    # Per-shard target reports: ClusterReport.to_dict() in process, the
    # same dict off the REPORT RPC over the network.
    collected = [s.collected for s in result.shard_results]
    if args.target == "cluster":
        payload["cluster"] = [report.to_dict() for report in collected]
    elif args.target == "network":
        payload["server"] = collected
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        _print_kv_summary(payload)
    return 0


def _print_kv_summary(payload: dict) -> None:
    """Render a ``uuidp kv --json`` payload as the human summary."""
    config = payload["config"]
    print(
        f"workload {payload['workload'].upper()} x {config['target']}: "
        f"{payload['operations']} ops over {payload['shards']} shard(s), "
        f"workers={payload['workers']}, seed={config['seed']}"
    )
    print(
        f"  throughput  {payload['ops_per_second']:,.0f} ops/s "
        f"({payload['measured_elapsed_seconds']:.2f}s measured, "
        f"{payload['elapsed_seconds']:.2f}s total)"
    )
    print(
        f"  latency     p50 {payload['p50_us']:.1f} us | "
        f"p95 {payload['p95_us']:.1f} us | p99 {payload['p99_us']:.1f} us "
        f"| max {payload['max_us']:.1f} us"
    )
    mix = " ".join(
        f"{op}={count}" for op, count in sorted(payload["op_counts"].items())
    )
    print(f"  op mix      {mix}")
    if payload["op_errors"]:
        errors = " ".join(
            f"{op}={count}"
            for op, count in sorted(payload["op_errors"].items())
        )
        print(
            f"  op errors   {errors} "
            f"(timeouts={payload['timeouts']}; failed ops hash a fixed "
            "marker into the fingerprint)"
        )
    print(f"  fingerprint {payload['fingerprint']:#010x} (bit-identical at any --workers)")
    elasticity = payload.get("elasticity")
    if elasticity is not None:
        scaler = config["autoscaler"]
        print(
            f"  elasticity  arrival={scaler['arrival']['kind']} "
            f"slo p99<={scaler['slo_p99_ms']:g}ms | modeled violations "
            f"{elasticity['slo_violation_fraction']:.1%} | "
            f"shed {elasticity['shed_ops']}"
        )
        if elasticity["enabled"]:
            print(
                f"  scaling     events={len(elasticity['scale_events'])} "
                f"avg nodes={elasticity['avg_live_nodes']:.2f} | "
                f"schedule {elasticity['schedule_fingerprint']:#010x} "
                "(bit-identical at any --workers)"
            )
    if config["write_mode"] != "memory":
        print(
            f"  durability  write-mode={config['write_mode']} "
            f"(acked writes survive crash-restart; see --kill-mode)"
        )
    reports = payload.get("cluster") or payload.get("server") or []
    clusters = [report for report in reports if report["kind"] == "cluster"]
    if not clusters:
        if reports:
            print(f"  server      {reports[0]['kind']}-backed")
        return

    def total(key: str) -> int:
        return sum(report[key] for report in clusters)

    print(
        f"  cluster     id collisions={total('id_collisions')} "
        f"corrupt block reads={total('corrupt_block_reads')} "
        f"migrations={total('migrations')}"
    )
    # A network client does not know the server's RF, so it always
    # prints the replication counters, without the quorum settings.
    rf = config.get("replication_factor")
    if rf is None or rf > 1 or config["chaos"]:
        quorums = "" if rf is None else f"RF={rf} R={config['read_quorum']} | "
        print(
            f"  replication {quorums}read repairs={total('read_repairs')} "
            f"hints replayed={total('hints_replayed')} "
            f"dead nodes={total('dead_nodes')}"
        )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve a store or cluster behind the asyncio RPC protocol."""
    import asyncio

    from repro.distributed.rpc import RPCServer

    factory, deployment = _deployment(args)
    server = RPCServer(
        factory,
        max_frame=args.max_frame,
        write_buffer_high=args.write_buffer,
    )

    async def _serve() -> None:
        await server.start(args.host, args.port)
        host, port = server.address
        # One parseable line; scripts (and the e2e test) wait for it
        # to learn the bound port when --port 0 picked an ephemeral one.
        print(
            f"uuidp serve: listening on {host}:{port} "
            f"(target={deployment}, algorithm={args.algorithm})",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.aclose()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("uuidp serve: shut down")
    return 0


def _cmd_worst(args: argparse.Namespace) -> int:
    from repro.adversary.worst_case import find_worst_profile
    from repro.analysis.exact import exact_collision_probability

    profile, value = find_worst_profile(
        lambda D: exact_collision_probability(args.algorithm, args.m, D),
        args.n,
        args.d,
    )
    print(
        f"worst found profile for {args.algorithm} over D1(n={args.n}, "
        f"d={args.d}), m={args.m}:"
    )
    print(f"  D = {profile.demands}")
    print(f"  p = {float(value):.6g}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """Side-by-side safety table for a deployment (m, n, per-instance h)."""
    from repro.analysis.exact import (
        bins_collision_probability,
        bins_star_collision_probability,
        cluster_collision_probability,
        random_collision_probability,
    )

    profile = DemandProfile.uniform(args.n, args.h)
    rows = [
        ("random", random_collision_probability(args.m, profile)),
        ("cluster", cluster_collision_probability(args.m, profile)),
    ]
    if args.h <= (args.m // args.h) * args.h:
        rows.append(
            (
                f"bins({args.h})",
                bins_collision_probability(args.m, args.h, profile),
            )
        )
    try:
        rows.append(
            ("bins*", bins_star_collision_probability(args.m, profile))
        )
    except ReproError:
        pass  # demand beyond the Bins* schedule for this m
    print(
        f"deployment: n={args.n} instances x h={args.h} IDs each, "
        f"universe m={args.m} (~{args.m.bit_length() - 1} bits)"
    )
    print(f"{'algorithm':>12}  {'collision probability':>22}")
    for name, probability in sorted(rows, key=lambda row: row[1]):
        print(f"{name:>12}  {float(probability):>22.6g}")
    print(
        "\n(uniform demand; for skewed fleets or adaptive threat models "
        "see `uuidp analyze`, `uuidp simulate --attack`, and E12)"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        quick=args.quick, seed=args.seed, plan=_plan_from_args(args),
    )
    results = run_all(config)
    sections = [result.to_markdown() for result in results]
    passed = sum(1 for r in results if r.all_passed)
    header = [
        "# EXPERIMENTS — measured reproduction of every claim",
        "",
        f"Shape checks passed in {passed}/{len(results)} experiments.",
        "",
    ]
    content = "\n".join(header) + "\n" + "\n".join(sections)
    with open(args.output, "w") as handle:
        handle.write(content)
    print(f"wrote {args.output} ({passed}/{len(results)} experiments green)")
    return 0 if passed == len(results) else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    # Lazy import: the devtools package is only needed for this
    # subcommand and pulls in the whole rule registry.
    from repro.devtools import LintEngine, render

    engine = LintEngine()
    report = engine.lint_paths(args.paths or ["src"])
    print(render(report, args.format))
    return report.exit_code


def _cmd_doccheck(args: argparse.Namespace) -> int:
    # Lazy import, same reasoning as lint.
    from repro.devtools.doccheck import check_paths, default_doc_paths

    paths = args.paths or default_doc_paths(os.getcwd())
    if not paths:
        raise ReproError(
            "doccheck found no README.md or docs/*.md here; pass "
            "markdown paths explicitly"
        )
    report = check_paths(paths, timeout=args.timeout)
    print(report.render(verbose=args.verbose))
    return report.exit_code


def _add_plan_options(parser: argparse.ArgumentParser) -> None:
    """The SimulationPlan knobs shared by every estimating subcommand."""
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="shard Monte-Carlo trials across N processes "
        "(0 = one per CPU); results are bit-identical for any N",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="python",
        help="Monte-Carlo trial engine: 'numpy' vectorizes oblivious "
        "trials as array operations (much faster, composes with "
        "--workers). Each engine has its own reproducible RNG stream, "
        "so their estimates differ by Monte-Carlo noise",
    )
    parser.add_argument(
        "--precision",
        type=float,
        default=None,
        metavar="HW",
        help="adaptive mode: stop sampling once the Wilson-CI "
        "half-width reaches HW (trial counts then act as caps); "
        "identical results for any --workers split",
    )
    parser.add_argument(
        "--max-trials",
        type=int,
        default=None,
        metavar="N",
        help="global cap on Monte-Carlo trials per estimate (the "
        "smaller of this and each call's own trial count wins)",
    )


def _add_deployment_options(parser: argparse.ArgumentParser) -> None:
    """The flags describing each shard's target, shared by kv and serve."""
    parser.add_argument("--nodes", type=int, default=4, help="cluster target: fleet size")
    parser.add_argument(
        "--replication", type=int, default=1, metavar="RF",
        help="cluster target: copies per key (writes go to the key's "
        "RF ring successors)",
    )
    parser.add_argument(
        "--read-quorum", type=int, default=None, metavar="R",
        help="cluster target: live replicas a read must reach "
        "(default: majority of RF); stale replicas lose last-write-wins "
        "and get read-repaired",
    )
    parser.add_argument(
        "--write-mode", choices=["nosync", "batch", "sync"], default=None,
        help="run each store on durable simulated storage with this "
        "group-commit policy (nosync: fsync only at flush; batch: "
        "adaptive group commit; sync: fsync every write); default is "
        "the in-memory store",
    )
    parser.add_argument("--algorithm", default="cluster", help="file-ID algorithm")
    parser.add_argument("--id-universe", type=int, default=1 << 64)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="uuidp",
        description="Optimal Uncoordinated Unique IDs (PODS 2023) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list algorithms and experiments")

    gen = sub.add_parser("generate", help="emit IDs from one instance")
    gen.add_argument("algorithm", help="e.g. cluster, bins:16, bins*")
    gen.add_argument("--m", type=int, default=1 << 128)
    gen.add_argument("--count", type=int, default=10)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--hex", action="store_true")

    ana = sub.add_parser("analyze", help="exact collision probability")
    ana.add_argument("algorithm")
    ana.add_argument("profile", help="comma-separated demands, e.g. 8,8,8")
    ana.add_argument("--m", type=int, default=1 << 20)

    simu = sub.add_parser("simulate", help="Monte-Carlo a game")
    simu.add_argument("algorithm")
    simu.add_argument("profile", help="comma-separated demands")
    simu.add_argument("--m", type=int, default=1 << 20)
    simu.add_argument("--trials", type=int, default=1000)
    simu.add_argument("--seed", type=int, default=0)
    simu.add_argument(
        "--attack", choices=["closest_pair", "greedy_gap"], default=None,
        help="play adaptively with this attack instead of obliviously",
    )
    _add_plan_options(simu)

    exp = sub.add_parser("experiment", help="run one experiment")
    exp.add_argument("id", help="E1..E12, A1, A2, or 'all'")
    exp.add_argument("--quick", action="store_true")
    exp.add_argument("--seed", type=int, default=20230414)
    exp.add_argument(
        "--json", action="store_true", help="emit JSON instead of markdown"
    )
    exp.add_argument(
        "--chart",
        default=None,
        metavar="XCOL:YCOL[,YCOL...]",
        help="also draw an ASCII chart of the selected columns",
    )
    _add_plan_options(exp)

    kv = sub.add_parser(
        "kv",
        help="drive a YCSB workload against a store or cluster",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Elastic serving: --arrival picks a deterministic "
            "time-varying demand signal (static, diurnal sinusoid, "
            "flash crowd, poisson bursts; pure in (seed, tick)), and "
            "--autoscale puts each shard's cluster fleet under the "
            "SLO controller: sustained modeled-p99 breach adds nodes "
            "up to --max-nodes, sustained idleness drains nodes down "
            "to --min-nodes (hint-safe decommission), and a saturated "
            "fleet sheds ops (reported as shed_ops, hashed as the "
            "failed-op marker). Decisions run on a logical queue "
            "model, not wall-clock latency, so two same-seed runs "
            "produce identical scale schedules and op fingerprints "
            "at any --workers count. --arrival without --autoscale "
            "is monitor-only: the SLO accounting runs but the fleet "
            "never changes size."
        ),
    )
    kv.add_argument(
        "--workload", default="b", choices=list("abcdef"),
        help="YCSB mix (E is 95%% scan / 5%% insert)",
    )
    kv.add_argument(
        "--target", choices=["store", "cluster", "network"], default="store",
        help="'network' drives a running `uuidp serve` over --addr",
    )
    kv.add_argument(
        "--addr", default=None, metavar="HOST:PORT",
        help="network target: the `uuidp serve` address to drive",
    )
    kv.add_argument(
        "--op-timeout", type=float, default=30.0, metavar="SECONDS",
        help="network target: per-op RPC timeout; a timed-out op counts "
        "as a failed (unacknowledged) op, not a crash",
    )
    kv.add_argument("--records", type=int, default=1000)
    kv.add_argument("--ops", type=int, default=5000, help="measured logical ops per shard")
    kv.add_argument("--warmup", type=int, default=0, help="unmeasured ops per shard")
    kv.add_argument("--value-size", type=int, default=32)
    kv.add_argument("--theta", type=float, default=0.99, help="zipfian skew")
    kv.add_argument("--scan-length", type=int, default=100, help="max scan rows (workload E)")
    kv.add_argument(
        "--shards", type=int, default=4,
        help="independent client streams, each with its own target",
    )
    kv.add_argument(
        "--workers", type=int, default=1,
        help="concurrent shard executors (results bit-identical for any N)",
    )
    _add_deployment_options(kv)
    kv.add_argument(
        "--rebalance-every", type=int, default=None, metavar="K",
        help="cluster target: migrate SSTs after every K ops",
    )
    kv.add_argument(
        "--kill-at", action="append", default=None, metavar="OP[:NODE]",
        help="cluster target: kill node NODE (default 0) at logical op "
        "tick OP in every shard's fleet; repeatable",
    )
    kv.add_argument(
        "--recover-at", action="append", default=None, metavar="OP[:NODE]",
        help="cluster target: recover node NODE at tick OP (replays "
        "hinted handoff); repeatable",
    )
    kv.add_argument(
        "--kill-mode", choices=["outage", "crash"], default="outage",
        help="what --kill-at simulates: a clean outage (state intact, "
        "default) or a process crash (memtable lost, WAL replayed on "
        "recovery; needs --write-mode)",
    )
    kv.add_argument(
        "--arrival", choices=["static", "diurnal", "flash", "poisson"],
        default="static",
        help="time-varying demand signal driving the SLO controller "
        "(pure in (seed, tick); see the epilog)",
    )
    kv.add_argument(
        "--arrival-rate", type=float, default=2000.0, metavar="OPS",
        help="mean offered load, in ops per logical second",
    )
    kv.add_argument(
        "--arrival-period", type=int, default=None, metavar="TICKS",
        help="diurnal: ticks per sinusoid cycle (default 2000)",
    )
    kv.add_argument(
        "--arrival-amplitude", type=float, default=None,
        help="diurnal: sinusoid amplitude in [0, 1) (default 0.6)",
    )
    kv.add_argument(
        "--arrival-flash-at", type=int, default=None, metavar="TICK",
        help="flash: tick the crowd arrives (default 1000)",
    )
    kv.add_argument(
        "--arrival-flash-ticks", type=int, default=None, metavar="TICKS",
        help="flash: how long the crowd stays (default 2000)",
    )
    kv.add_argument(
        "--arrival-peak", type=float, default=None, metavar="X",
        help="flash/poisson: demand multiplier during a surge "
        "(default 4.0)",
    )
    kv.add_argument(
        "--arrival-burst-prob", type=float, default=None, metavar="P",
        help="poisson: per-tick burst arrival probability "
        "(default 0.002)",
    )
    kv.add_argument(
        "--arrival-burst-ticks", type=int, default=None, metavar="TICKS",
        help="poisson: burst length (default 200)",
    )
    kv.add_argument(
        "--autoscale", action="store_true",
        help="cluster target: scale the fleet between --min-nodes and "
        "--max-nodes against the --slo-p99-ms objective (without this "
        "flag, --arrival runs monitor-only SLO accounting)",
    )
    kv.add_argument(
        "--slo-p99-ms", type=float, default=20.0, metavar="MS",
        help="the SLO: modeled p99 queue latency to defend",
    )
    kv.add_argument(
        "--min-nodes", type=int, default=None, metavar="N",
        help="autoscale floor (default: max(1, --replication))",
    )
    kv.add_argument(
        "--max-nodes", type=int, default=8, metavar="N",
        help="autoscale ceiling; beyond it only shedding protects "
        "the SLO",
    )
    kv.add_argument(
        "--node-capacity", type=float, default=1000.0, metavar="OPS",
        help="queue model: ops per logical second one node serves",
    )
    kv.add_argument(
        "--scale-check-every", type=int, default=200, metavar="TICKS",
        help="controller checkpoint period, in logical op ticks",
    )
    kv.add_argument(
        "--shed-after-ms", type=float, default=80.0, metavar="MS",
        help="admission control: shed ops whose modeled queue delay "
        "exceeds this (the saturation pressure valve)",
    )
    kv.add_argument("--seed", type=int, default=0)
    kv.add_argument("--json", action="store_true", help="emit the bench JSON schema")

    serve = sub.add_parser(
        "serve",
        help="serve a store or cluster over the asyncio RPC protocol",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7417,
        help="TCP port (0 picks an ephemeral one; the bound port is "
        "printed on the 'listening' line)",
    )
    serve.add_argument(
        "--target", choices=["store", "cluster"], default="cluster",
        help="what each client shard attaches to: a private MiniRocks "
        "or a private ClusterSimulator fleet",
    )
    _add_deployment_options(serve)
    serve.add_argument(
        "--max-frame", type=int, default=1 << 20,
        help="frame-size cap in bytes; larger length prefixes close "
        "the offending connection before any allocation",
    )
    serve.add_argument(
        "--write-buffer", type=int, default=64 * 1024,
        help="per-connection response buffer high-water mark in bytes "
        "(the slow-client bound: past it the server stops reading that "
        "connection until the client drains)",
    )

    compare = sub.add_parser(
        "compare", help="side-by-side safety table for a deployment"
    )
    compare.add_argument("--m", type=int, default=1 << 128)
    compare.add_argument("--n", type=int, default=1000, help="instances")
    compare.add_argument(
        "--h", type=int, default=10**9, help="IDs per instance"
    )

    worst = sub.add_parser(
        "worst", help="search the worst oblivious profile in D1(n, d)"
    )
    worst.add_argument("algorithm", help="an algorithm with a closed form")
    worst.add_argument("--n", type=int, default=8)
    worst.add_argument("--d", type=int, default=1024)
    worst.add_argument("--m", type=int, default=1 << 20)

    rep = sub.add_parser("report", help="run all experiments to markdown")
    rep.add_argument("--output", default="EXPERIMENTS.md")
    rep.add_argument("--quick", action="store_true")
    rep.add_argument("--seed", type=int, default=20230414)
    _add_plan_options(rep)

    lint = sub.add_parser(
        "lint",
        help="run the repo-specific REPRO static-analysis rules",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )

    doccheck = sub.add_parser(
        "doccheck",
        help="smoke-run the fenced examples in README.md and docs/",
    )
    doccheck.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="markdown files (default: README.md + docs/*.md)",
    )
    doccheck.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="seconds per block (default: REPRO_DOCCHECK_TIMEOUT or "
        "60; a timeout is tolerated — only rot signatures fail)",
    )
    doccheck.add_argument(
        "--verbose",
        action="store_true",
        help="list every block, not just failures",
    )

    return parser


_HANDLERS = {
    "list": _cmd_list,
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "experiment": _cmd_experiment,
    "kv": _cmd_kv,
    "serve": _cmd_serve,
    "worst": _cmd_worst,
    "compare": _cmd_compare,
    "report": _cmd_report,
    "lint": _cmd_lint,
    "doccheck": _cmd_doccheck,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
