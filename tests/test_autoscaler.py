"""The elastic-serving stack: deterministic arrival processes, the SLO
autoscaler's control loop (scale-up, hint-safe scale-down, shedding),
and the workers-invariance / same-seed identity contracts."""

from dataclasses import asdict

import pytest

from repro.distributed import Autoscaler, AutoscalerConfig, ClusterSimulator
from repro.errors import ConfigurationError, ProfileError
from repro.kvstore.options import Options
from repro.workloads.demand import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    make_arrival,
)
from repro.workloads.driver import (
    DriverConfig,
    WorkloadDriver,
    cluster_target_factory,
    flush_and_report,
)
from repro.workloads.ycsb import WorkloadSpec

SEED = 20230414


def small_options():
    return Options(memtable_entries=32, block_entries=8)


# -- arrival processes -------------------------------------------------------


class TestArrivalProcess:
    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_rate_is_pure_and_order_invariant(self, kind):
        process = make_arrival(kind, 1000.0)
        ticks = [1, 7, 500, 1500, 2500, 10_000]
        forward = [process.rate(SEED, t) for t in ticks]
        backward = [process.rate(SEED, t) for t in reversed(ticks)]
        assert forward == list(reversed(backward))
        # A fresh instance with identical knobs agrees bit-for-bit.
        again = make_arrival(kind, 1000.0)
        assert [again.rate(SEED, t) for t in ticks] == forward

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_rate_is_positive(self, kind):
        process = make_arrival(kind, 500.0)
        assert all(
            process.rate(SEED, t) > 0 for t in range(1, 3000, 97)
        )

    def test_static_is_flat(self):
        process = make_arrival("static", 750.0)
        assert {process.rate(SEED, t) for t in (1, 100, 9999)} == {750.0}

    def test_flash_raises_demand_inside_the_window(self):
        process = make_arrival(
            "flash", 1000.0, flash_at=100, flash_ticks=50, peak=4.0
        )
        before = process.rate(SEED, 99)
        inside = process.rate(SEED, 125)
        after = process.rate(SEED, 151)
        assert before == after == 1000.0
        assert inside == 4000.0

    def test_diurnal_oscillates_and_differs_by_seed_phase(self):
        process = make_arrival(
            "diurnal", 1000.0, period=100, amplitude=0.5
        )
        rates = [process.rate(SEED, t) for t in range(1, 101)]
        assert max(rates) > 1200.0
        assert min(rates) < 800.0

    def test_poisson_bursts_are_seed_deterministic(self):
        process = make_arrival(
            "poisson", 1000.0, burst_prob=0.01, burst_ticks=20, peak=3.0
        )
        rates = [process.rate(SEED, t) for t in range(1, 5000)]
        assert any(r > 1000.0 for r in rates), "no burst in 5000 ticks"
        assert rates == [process.rate(SEED, t) for t in range(1, 5000)]

    def test_tick_must_be_positive(self):
        with pytest.raises(ProfileError):
            ArrivalProcess().rate(SEED, 0)

    def test_unknown_kind_and_knob_are_rejected(self):
        with pytest.raises(ProfileError):
            make_arrival("weekly", 1000.0)
        with pytest.raises(ProfileError):
            make_arrival("flash", 1000.0, no_such_knob=3)

    def test_bad_shapes_are_rejected(self):
        with pytest.raises(ProfileError):
            ArrivalProcess(base_rate=0.0)
        with pytest.raises(ProfileError):
            ArrivalProcess(kind="diurnal", amplitude=1.0)
        with pytest.raises(ProfileError):
            ArrivalProcess(kind="flash", peak=0.5)


# -- config validation -------------------------------------------------------


class TestAutoscalerConfig:
    def test_defaults_validate(self):
        config = AutoscalerConfig()
        assert asdict(config)["slo_p99_ms"] == 20.0

    def test_shed_threshold_must_cover_the_slo(self):
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(slo_p99_ms=50.0, shed_after_ms=20.0)

    def test_node_bounds_must_be_ordered(self):
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(min_nodes=5, max_nodes=2)

    def test_idle_floor_below_target_utilization(self):
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(idle_utilization=0.8, target_utilization=0.7)

    def test_enabled_scaling_needs_a_scalable_target(self):
        from repro.kvstore.db import MiniRocks

        store = MiniRocks(small_options())
        with pytest.raises(ConfigurationError):
            Autoscaler(store, AutoscalerConfig(enabled=True), seed=SEED)
        # Monitor-only accounting runs on any target.
        Autoscaler(store, AutoscalerConfig(enabled=False), seed=SEED)


# -- the control loop, driven directly ---------------------------------------


def _flash_config(**overrides):
    base = dict(
        arrival=ArrivalProcess(
            kind="flash",
            base_rate=500.0,
            flash_at=200,
            flash_ticks=600,
            peak=6.0,
        ),
        slo_p99_ms=20.0,
        min_nodes=1,
        max_nodes=6,
        node_capacity=1000.0,
        check_every=50,
        breach_checks=2,
        idle_checks=3,
        idle_utilization=0.35,
        shed_after_ms=80.0,
        enabled=True,
    )
    base.update(overrides)
    return AutoscalerConfig(**base)


def _drive(scaler, ticks, phase="measured"):
    for tick in range(1, ticks + 1):
        scaler.observe_op(tick, phase)
        scaler.on_tick(tick)


class TestControlLoop:
    def test_scales_up_on_sustained_breach(self):
        sim = ClusterSimulator(2, small_options, seed=SEED)
        scaler = Autoscaler(sim, _flash_config(), seed=SEED)
        _drive(scaler, 800)
        adds = [e for e in scaler.events if e.action == "add"]
        assert adds, "flash crowd never triggered a scale-up"
        assert len(sim.live_nodes()) > 2
        assert len(sim.live_nodes()) <= 6

    def test_scales_down_when_idle_but_respects_min_nodes(self):
        sim = ClusterSimulator(4, small_options, seed=SEED)
        config = _flash_config(
            arrival=ArrivalProcess(kind="static", base_rate=200.0),
            min_nodes=2,
        )
        scaler = Autoscaler(sim, config, seed=SEED)
        _drive(scaler, 1500)
        removes = [
            e for e in scaler.events if e.action == "remove"
        ]
        assert removes, "an over-provisioned fleet never shrank"
        assert len(sim.live_nodes()) == 2  # floored at min_nodes
        # Decommissioned nodes are dead, not vanished.
        assert sim.report().dead_nodes == len(removes)

    def test_scale_down_never_breaks_replication(self):
        sim = ClusterSimulator(
            4, small_options, seed=SEED, replication_factor=3
        )
        config = _flash_config(
            arrival=ArrivalProcess(kind="static", base_rate=100.0),
            min_nodes=1,  # the controller may want 1...
        )
        scaler = Autoscaler(sim, config, seed=SEED)
        for key in range(50):
            sim.put(b"k%d" % key, b"v%d" % key)
        _drive(scaler, 2000)
        # ...but the cluster refuses to drop below RF live nodes.
        assert len(sim.live_nodes()) >= 3
        for key in range(50):
            assert sim.get(b"k%d" % key) == b"v%d" % key

    def test_sheds_when_pinned_at_max_nodes(self):
        sim = ClusterSimulator(1, small_options, seed=SEED)
        config = _flash_config(
            arrival=ArrivalProcess(kind="static", base_rate=5000.0),
            max_nodes=2,
        )
        scaler = Autoscaler(sim, config, seed=SEED)
        _drive(scaler, 600)
        assert len(sim.live_nodes()) == 2
        assert scaler.shed_ops > 0
        # A shed measured op is an SLO violation from the client side.
        assert scaler.slo_violations >= scaler.shed_ops
        assert scaler.slo_violation_fraction > 0.5

    def test_load_phase_observes_but_never_sheds(self):
        sim = ClusterSimulator(1, small_options, seed=SEED)
        config = _flash_config(
            arrival=ArrivalProcess(kind="static", base_rate=50_000.0),
            enabled=False,
        )
        scaler = Autoscaler(sim, config, seed=SEED)
        assert all(
            scaler.observe_op(tick, "load") for tick in range(1, 200)
        )
        assert scaler.shed_ops == 0
        assert scaler.measured_ops == 0

    def test_schedule_fingerprint_tracks_events(self):
        sim = ClusterSimulator(2, small_options, seed=SEED)
        scaler = Autoscaler(sim, _flash_config(), seed=SEED)
        empty = scaler.schedule_fingerprint()
        _drive(scaler, 800)
        assert scaler.events
        assert scaler.schedule_fingerprint() != empty
        summary = scaler.summary()
        assert summary["scale_events"] == [
            asdict(e) for e in scaler.events
        ]


# -- decommission drain safety -----------------------------------------------


class TestDecommission:
    def test_keys_stay_readable_through_a_drain(self):
        sim = ClusterSimulator(
            4, small_options, seed=SEED, replication_factor=2
        )
        keys = [b"key-%d" % i for i in range(80)]
        for key in keys:
            sim.put(key, b"v:" + key)
        leaver = sim.nodes[1]
        sim.decommission(leaver)
        assert not leaver.alive
        for key in keys:
            assert sim.get(key) == b"v:" + key
        assert ("decommission", leaver.name) in [
            event[:2] for event in sim.fault_events
        ]

    def test_refuses_dead_nodes_and_rf_violations(self):
        sim = ClusterSimulator(
            3, small_options, seed=SEED, replication_factor=3
        )
        with pytest.raises(ConfigurationError):
            sim.decommission(0)  # would leave 2 < RF=3 live
        sim2 = ClusterSimulator(3, small_options, seed=SEED)
        sim2.kill(1)
        with pytest.raises(ConfigurationError):
            sim2.decommission(1)

    def test_pending_hints_for_the_leaver_are_rehomed(self):
        sim = ClusterSimulator(
            4,
            small_options,
            seed=SEED,
            replication_factor=2,
            write_quorum=1,
            read_quorum=1,
        )
        keys = [b"hinted-%d" % i for i in range(60)]
        sim.kill(2)
        for key in keys:
            sim.put(key, b"v:" + key)  # hints queue for node 2
        sim.recover(2)
        # Replay left node 2 current; now drain it away. Every write
        # must remain readable through the remaining fleet.
        sim.decommission(2)
        for key in keys:
            assert sim.get(key) == b"v:" + key


# -- driver integration: the identity contracts ------------------------------


def _driver_config(workers):
    ops = 1200
    records = 300
    return DriverConfig(
        spec=WorkloadSpec(
            workload="a",
            record_count=records,
            operation_count=ops,
            value_size=24,
        ),
        shards=2,
        workers=workers,
        seed=SEED,
        autoscaler=AutoscalerConfig(
            arrival=ArrivalProcess(
                kind="flash",
                base_rate=300.0,
                flash_at=records + ops // 4,
                flash_ticks=ops // 2,
                peak=6.0,
            ),
            slo_p99_ms=20.0,
            min_nodes=1,
            max_nodes=6,
            node_capacity=600.0,
            check_every=60,
            breach_checks=2,
            idle_checks=3,
            idle_utilization=0.35,
            shed_after_ms=80.0,
            enabled=True,
        ),
    )


def _run(workers):
    return WorkloadDriver(
        cluster_target_factory(2, small_options),
        _driver_config(workers),
        collect=flush_and_report,
    ).run()


class TestDriverIntegration:
    def test_same_seed_runs_are_bit_identical(self):
        first = _run(workers=1)
        second = _run(workers=1)
        assert first.fingerprint == second.fingerprint
        assert first.elasticity == second.elasticity
        assert first.elasticity["scale_events"], "no scaling happened"

    def test_workers_split_cannot_change_the_story(self):
        serial = _run(workers=1)
        parallel = _run(workers=2)
        assert serial.fingerprint == parallel.fingerprint
        assert (
            serial.elasticity["schedule_fingerprint"]
            == parallel.elasticity["schedule_fingerprint"]
        )
        assert (
            serial.elasticity["scale_events"]
            == parallel.elasticity["scale_events"]
        )
        assert serial.shed_ops == parallel.shed_ops

    def test_result_document_carries_the_elasticity_block(self):
        result = _run(workers=1)
        payload = result.to_dict()
        assert payload["config"]["autoscaler"]["arrival"]["kind"] == (
            "flash"
        )
        block = payload["elasticity"]
        assert block["enabled"] is True
        assert block["measured_ops"] > 0
        assert 0.0 <= block["slo_violation_fraction"] <= 1.0
        assert payload["shed_ops"] == block["shed_ops"]
        assert block["shards"], "per-shard summaries missing"

    def test_monitor_only_never_scales(self):
        config = _driver_config(workers=1)
        monitor = DriverConfig(
            spec=config.spec,
            shards=config.shards,
            workers=1,
            seed=config.seed,
            autoscaler=AutoscalerConfig(
                arrival=config.autoscaler.arrival,
                slo_p99_ms=20.0,
                node_capacity=600.0,
                check_every=60,
                shed_after_ms=80.0,
                enabled=False,
            ),
        )
        result = WorkloadDriver(
            cluster_target_factory(2, small_options),
            monitor,
            collect=flush_and_report,
        ).run()
        assert result.elasticity["scale_events"] == []
        assert result.elasticity["enabled"] is False
