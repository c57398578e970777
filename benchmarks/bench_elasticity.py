"""Elasticity bench: autoscaled vs statically provisioned fleets.

Every row drives the same flash-crowd arrival process (base load with
a mid-run demand surge, pure in ``(seed, tick)``) through a cluster
fleet and records, alongside wall-clock ops/s and p99:

* ``slo_violation_fraction`` — measured ops whose *modeled* queue
  latency breached the SLO (deterministic: the autoscaler's logical
  queue model, not wall clock, so the fraction is a stable, gateable
  number);
* ``shed_ops`` — ops rejected by admission control;
* ``avg_nodes`` — mean fleet size over the run (the provisioning
  cost axis).

The scenario matrix: ``autoscaled`` (the SLO controller scales 2 → up
to 8 nodes), ``static_under`` (flat fleet sized for the base load),
``static_avg`` (flat fleet with the same *average* node count the
autoscaler used — the fair-cost comparison), and ``static_over``
(flat fleet sized for the peak). The headline assertion: at equal
average cost, the autoscaled fleet violates the SLO strictly less
than the static fleet — elasticity buys SLO, not just ops/s. A second
gate re-runs the autoscaled scenario with the same seed and requires
bit-identical op fingerprints *and* scale-event schedules.

Rows land in the CI artifact behind ``compare_baseline.py`` keyed
``elastic/<scenario>``. ``REPRO_BENCH_SCALE`` shrinks record/op
counts for the smoke lane; the tick geometry (flash window, control
period) is derived from the scaled counts so every scale keeps the
surge inside the measured phase.
"""

import os

from repro.distributed.autoscaler import AutoscalerConfig
from repro.kvstore.options import Options
from repro.workloads.demand import ArrivalProcess
from repro.workloads.driver import (
    DriverConfig,
    WorkloadDriver,
    cluster_target_factory,
    flush_and_report,
)
from repro.workloads.ycsb import WorkloadSpec

BENCH_SEED = 20230414

#: Queue-model capacity of one node, ops per logical second.
NODE_CAPACITY = 1000.0
#: Offered load outside the flash window (half a node of headroom on
#: the 2-node starting fleet).
BASE_RATE = 1000.0
#: Demand multiplier while the flash crowd is present.
FLASH_PEAK = 6.0
START_NODES = 2
MAX_NODES = 8

#: Cache for the cross-test comparison: the static_avg scenario sizes
#: its fleet from the autoscaled run's measured average node count.
_autoscaled_result = None


def _scaled(base: int, floor: int) -> int:
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1"))
    return max(floor, int(base * scale))


def _counts():
    """(record_count, measured ops) at the current bench scale."""
    return _scaled(1000, 200), _scaled(6000, 800)


def _autoscaler_config(records: int, ops: int, enabled: bool):
    """The shared SLO-controller config; tick geometry follows scale.

    The flash crowd arrives a quarter into the measured phase (after
    the ``records`` load ticks) and stays for half of it. Arrival rate
    and node capacity both shrink with the op count, which keeps the
    queue *physics* scale-invariant: utilization ratios are unchanged,
    while time-to-SLO-breach (an absolute-ms threshold over a backlog
    denominated in capacity units) shrinks in ticks exactly as the
    flash window does — so the smoke lane sees the same
    breach/scale/shed story as the full run, just shorter.
    """
    time_scale = ops / 6000.0
    return AutoscalerConfig(
        arrival=ArrivalProcess(
            kind="flash",
            base_rate=BASE_RATE * time_scale,
            flash_at=records + ops // 4,
            flash_ticks=ops // 2,
            peak=FLASH_PEAK,
        ),
        slo_p99_ms=20.0,
        min_nodes=1,
        max_nodes=MAX_NODES,
        node_capacity=NODE_CAPACITY * time_scale,
        check_every=max(25, ops // 40),
        breach_checks=2,
        idle_checks=3,
        idle_utilization=0.35,
        shed_after_ms=80.0,
        enabled=enabled,
    )


def _options() -> Options:
    return Options(memtable_entries=128, block_entries=16)


def _run(nodes: int, enabled: bool):
    records, ops = _counts()
    config = DriverConfig(
        spec=WorkloadSpec(
            workload="a",
            record_count=records,
            operation_count=ops,
            value_size=32,
        ),
        shards=2,
        workers=1,
        seed=BENCH_SEED,
        autoscaler=_autoscaler_config(records, ops, enabled),
    )
    return WorkloadDriver(
        cluster_target_factory(nodes, _options),
        config,
        collect=flush_and_report,
    ).run()


def _autoscaled():
    global _autoscaled_result
    if _autoscaled_result is None:
        _autoscaled_result = _run(START_NODES, enabled=True)
    return _autoscaled_result


def _record(benchmark, scenario: str, result) -> None:
    payload = result.to_dict()
    elasticity = payload["elasticity"]
    benchmark.extra_info["target"] = "elastic"
    benchmark.extra_info["workload"] = scenario
    benchmark.extra_info["ops_per_second"] = payload["ops_per_second"]
    benchmark.extra_info["p99_us"] = payload["p99_us"]
    benchmark.extra_info["fingerprint"] = payload["fingerprint"]
    benchmark.extra_info["slo_violation_fraction"] = elasticity[
        "slo_violation_fraction"
    ]
    benchmark.extra_info["shed_ops"] = elasticity["shed_ops"]
    benchmark.extra_info["avg_nodes"] = elasticity["avg_live_nodes"]
    benchmark.extra_info["schedule_fingerprint"] = elasticity[
        "schedule_fingerprint"
    ]
    print(
        f"\nELASTIC[{scenario}]: "
        f"{payload['ops_per_second']:,.0f} ops/s, "
        f"SLO violations {elasticity['slo_violation_fraction']:.1%}, "
        f"shed {elasticity['shed_ops']}, "
        f"avg nodes {elasticity['avg_live_nodes']:.2f}"
    )


def test_elasticity_autoscaled(benchmark):
    """The SLO controller under a flash crowd — plus the identity gate.

    Two same-seed runs must agree bit-for-bit on op fingerprints and
    on the scale-event schedule (tick, action, node, fleet size of
    every event): the queue model, not the wall clock, drives scaling.
    """
    global _autoscaled_result
    result = benchmark.pedantic(
        lambda: _run(START_NODES, enabled=True), rounds=1, iterations=1
    )
    _autoscaled_result = result
    rerun = _run(START_NODES, enabled=True)
    assert rerun.fingerprint == result.fingerprint
    first = result.elasticity
    second = rerun.elasticity
    assert (
        second["schedule_fingerprint"] == first["schedule_fingerprint"]
    )
    assert second["scale_events"] == first["scale_events"]
    assert first["scale_events"], "flash crowd must trigger scale-ups"
    assert any(
        event["action"] == "add" for event in first["scale_events"]
    )
    _record(benchmark, "autoscaled", result)


def test_elasticity_static_under(benchmark):
    """Flat fleet sized for the base load: cheap, melts under flash."""
    result = benchmark.pedantic(
        lambda: _run(START_NODES, enabled=False), rounds=1, iterations=1
    )
    elasticity = result.elasticity
    assert not elasticity["scale_events"]
    # Saturation must engage the pressure valve, not crash the run.
    assert elasticity["shed_ops"] > 0
    _record(benchmark, "static_under", result)


def test_elasticity_static_avg(benchmark):
    """The headline comparison: same average node count, flat.

    The fleet size is the autoscaled run's measured ``avg_nodes``
    (rounded); at equal provisioning cost the autoscaled fleet must
    deliver a strictly lower modeled SLO-violation fraction.
    """
    auto = _autoscaled()
    avg_nodes = max(1, round(auto.elasticity["avg_live_nodes"]))
    result = benchmark.pedantic(
        lambda: _run(avg_nodes, enabled=False), rounds=1, iterations=1
    )
    benchmark.extra_info["static_nodes"] = avg_nodes
    auto_fraction = auto.elasticity["slo_violation_fraction"]
    static_fraction = result.elasticity["slo_violation_fraction"]
    assert auto_fraction < static_fraction, (
        f"autoscaled fleet ({auto_fraction:.1%} violations, avg "
        f"{auto.elasticity['avg_live_nodes']:.2f} nodes) must beat a "
        f"flat {avg_nodes}-node fleet ({static_fraction:.1%}) at "
        "equal average cost"
    )
    _record(benchmark, "static_avg", result)


def test_elasticity_static_over(benchmark):
    """Flat fleet sized for the peak: the SLO bought with idle nodes."""
    result = benchmark.pedantic(
        lambda: _run(MAX_NODES, enabled=False), rounds=1, iterations=1
    )
    _record(benchmark, "static_over", result)
