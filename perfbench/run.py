"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. With ``--trace 0`` the last stdout line
is a JSON object holding every end-to-end metric; with ``--trace 1``
the run alternates untraced and traced chunks and the JSON holds every
per-layer metric instead. The exit code is 1 when an output check
fails and 2 when the library sources are missing.

Before measuring, a run times the workload's set-up in fresh processes:
each is this script with ``--setup-only``, which sets the workload up in
timed steps, prints ``{"raw_s": ..., "scaled_s": ...}`` and exits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: End-to-end metrics and their units. Each workload maps op kinds a
#: and b onto its own ops (see README).
E2E = {
    "ops_per_s": "1/s",
    "a_p50_us": "us",
    "a_tail_us": "us",
    "b_p50_us": "us",
    "b_tail_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Metrics published in host-scaled form unless the workload lists them
#: in its ``RAW_METRICS``; each has a ``raw.*`` twin among the per-layer
#: metrics (README, "A drifting host").
SCALED = ("ops_per_s", "a_p50_us", "a_tail_us", "b_p50_us", "b_tail_us", "setup_s")

WORKLOADS = ("kv-cluster-rf3", "kv-network", "estimate-mc")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _e2e_values(result, scaled: bool) -> dict:
    a = result.a.summary(scaled)
    b = result.b.summary(scaled)
    return {
        "ops_per_s": result.clock.plain.rate(scaled),
        "a_p50_us": a["p50"],
        "a_tail_us": a["tail"],
        "b_p50_us": b["p50"],
        "b_tail_us": b["tail"],
        "setup_s": result.setup_seconds(scaled),
        "peak_rss_mb": result.peak_rss_mb,
    }


def _print_table(workload, result, raw: dict, scaled: dict, published: tuple) -> None:
    from perfbench.stats import ppm_label

    kind_a, kind_b = result.kind_names
    a, b = result.a.summary(True), result.b.summary(True)
    labels = {
        "ops_per_s": ("ops_per_s", result.clock.plain.ops),
        "a_p50_us": (f"{kind_a}_p50_us", a["count"]),
        "a_tail_us": (f"{kind_a}_{ppm_label(a['tail_ppm'])}_us", a["count"]),
        "b_p50_us": (f"{kind_b}_p50_us", b["count"]),
        "b_tail_us": (f"{kind_b}_{ppm_label(b['tail_ppm'])}_us", b["count"]),
        "setup_s": ("setup_s", len(result.setup_raw_s)),
        "peak_rss_mb": ("peak_rss_mb", 1),
    }
    print(f"workload {workload}: attempted={result.attempted} failed={result.failed}")
    print(f"{'metric':<24}{'as':<20}{'unit':<6}{'value':>14}{'raw':>14}{'n':>9}")
    for name, unit in E2E.items():
        label, count = labels[name]
        is_scaled = name in published
        form = "scaled" if is_scaled else "raw"
        value = scaled[name] if is_scaled else raw[name]
        print(
            f"{name:<24}{label:<20}{unit:<6}{value:>14.4f}{raw[name]:>14.4f}"
            f"{count:>9}  ({form})"
        )
    for name, value in result.extra.items():
        print(f"{name:<44}{value:>14.4f}")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")


def _layer_values(result, raw: dict) -> dict:
    from perfbench.layers import PER_LAYER_UNITS

    layers = {name: 0.0 for name in PER_LAYER_UNITS}
    layers.update(result.layers)
    clock = result.clock
    # Medians over chunks: a few chunks holding a long compaction would
    # otherwise decide which half looks faster.
    plain = statistics.median(clock.plain.chunk_rates)
    traced = statistics.median(clock.traced.chunk_rates)
    layers["py.gc_ms_share"] = result.gc_ns / clock.plain.raw_ns if clock.plain.raw_ns else 0.0
    layers["host.ref_us"] = statistics.median(clock.ref.samples_us)
    layers["trace.overhead_share"] = 1.0 - traced / plain
    layers["trace.coverage_share"] = (
        result.covered_ns / result.traced_op_ns if result.traced_op_ns else 0.0
    )
    for name in SCALED:
        layers[f"raw.{name}"] = raw[name]
    return layers


def layer_units() -> dict:
    """Unit of every per-layer metric, ``raw.*`` included."""
    from perfbench.layers import PER_LAYER_UNITS

    units = dict(PER_LAYER_UNITS)
    for name in SCALED:
        units[f"raw.{name}"] = E2E[name]
    return units


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench.measure import Config

    config = Config(seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    if args.workload == "kv-cluster-rf3":
        from perfbench import kv_cluster as workload
    elif args.workload == "kv-network":
        from perfbench import kv_network as workload
    else:
        from perfbench import estimate_mc as workload
    from perfbench.host import HostReference
    from perfbench.measure import SetupTimer, cold_setups

    if args.setup_only:
        timer = SetupTimer(HostReference())
        state = workload.setup(config, timer)
        print(json.dumps({"raw_s": timer.raw_s, "scaled_s": timer.scaled_s}), flush=True)
        workload.close(state)
        return 0

    setup_raw, setup_scaled = cold_setups([
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only",
    ], workload.SETUP_REPEATS)
    result = workload.run(config)
    result.setup_raw_s, result.setup_scaled_s = setup_raw, setup_scaled
    raw = _e2e_values(result, scaled=False)
    scaled = _e2e_values(result, scaled=True)
    published = tuple(name for name in SCALED if name not in workload.RAW_METRICS)
    _print_table(args.workload, result, raw, scaled, published)
    print("detail: " + json.dumps({"raw": raw, "scaled": scaled, **result.extra}))
    if config.trace:
        units = layer_units()
        values = _layer_values(result, raw)
        result.tracer.dump(ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.bin")
    else:
        units = dict(E2E)
        values = {
            name: scaled[name] if name in published else raw[name]
            for name in E2E
        }
    correct = not result.problems and result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
