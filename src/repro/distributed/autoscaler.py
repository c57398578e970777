"""SLO-driven elastic autoscaling for the simulated serving fleet.

The controller closes the loop between the demand side — an
:class:`~repro.workloads.demand.ArrivalProcess` mapping logical op
ticks to offered load — and the supply side, a replicated
:class:`~repro.distributed.cluster.ClusterSimulator` whose membership
it may change at runtime via :meth:`~ClusterSimulator.add_node` and
:meth:`~ClusterSimulator.decommission`.

Determinism contract
--------------------
Scale decisions must be **bit-identical across same-seed runs at any
``workers=`` split**, which rules out wall-clock latency as the control
signal (thread scheduling jitter would make two identical runs scale
differently). Instead the controller runs a *logical queue model*: at
each op tick it evaluates the arrival rate (pure in ``(seed, tick)``),
drains a backlog at ``live_nodes * node_capacity`` ops per logical
second, and records the resulting *modeled* latency in its own
:class:`~repro.workloads.driver.LatencyHistogram`. Every control
output — scale events, shed ops, SLO violations — is a pure function
of ``(seed, tick schedule, config)``. The driver's wall-clock
histogram is untouched and still reports real measured latencies.

Control loop
------------
At every ``check_every`` ticks the controller inspects the window's
modeled p99 and mean utilisation:

* sustained SLO breach (``breach_checks`` consecutive windows over
  ``slo_p99_ms``) → ``add_node()`` + ring re-convergence, up to
  ``max_nodes``;
* sustained idleness (``idle_checks`` consecutive windows under
  ``idle_utilization``) → hint-safe ``decommission()`` of the
  least-loaded node, down to ``min_nodes``;
* admission control: while the modeled queue delay exceeds
  ``shed_after_ms`` the op is shed — it never reaches the target,
  surfaces as ``FAILED_OP_OUTCOME`` in the op fingerprint, and counts
  in ``shed_ops`` (not ``op_errors``).

``enabled=False`` gives *monitor-only* mode: the queue model, SLO
accounting, and shedding run, but membership never changes — this is
how the elasticity benchmark measures statically provisioned fleets
under the same arrival process.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.workloads.demand import ArrivalProcess


@dataclass(frozen=True)
class ScaleEvent:
    """One membership change decided by the :class:`Autoscaler`.

    The tuple of events for a run is its *scale schedule*; same-seed
    runs must produce identical schedules (see
    :meth:`Autoscaler.schedule_fingerprint`).
    """

    #: Logical op tick (the driver's 1-based op counter) at which the
    #: decision fired — same clock as ``ChaosEvent.at_op``.
    at_op: int
    #: ``"add"`` or ``"remove"``.
    action: str
    #: Name of the node that joined or drained.
    node: str
    #: Live-node count after the change.
    nodes_after: int
    #: Modeled window p99 (milliseconds) that drove the decision.
    p99_ms: float
    #: Mean offered-load / capacity ratio over the window.
    utilization: float
    #: Human-readable cause, e.g. ``"p99 64.0ms > slo 20.0ms x2"``.
    reason: str


@dataclass(frozen=True)
class AutoscalerConfig:
    """Knobs for the SLO controller (the ``uuidp kv --autoscale`` set).

    All thresholds act on the *modeled* queue latency — see the module
    docstring for why wall-clock latency cannot drive scaling in a
    bit-reproducible simulation.
    """

    #: Demand signal; pure in ``(seed, tick)``.
    arrival: ArrivalProcess = field(default_factory=ArrivalProcess)
    #: The SLO: modeled p99 must stay at or under this many ms.
    slo_p99_ms: float = 20.0
    #: Fleet floor — scale-down never goes below this (must also stay
    #: >= the cluster's replication factor; ``decommission`` enforces
    #: that independently).
    min_nodes: int = 1
    #: Fleet ceiling — scale-up stops here; beyond it only shedding
    #: protects the SLO.
    max_nodes: int = 8
    #: Ops per logical second one node can serve in the queue model.
    node_capacity: float = 1000.0
    #: Controller checkpoint period, in logical op ticks.
    check_every: int = 200
    #: Consecutive breaching windows required before scale-up.
    breach_checks: int = 2
    #: Consecutive idle windows required before scale-down.
    idle_checks: int = 3
    #: A window is idle when mean utilisation is under this ratio.
    idle_utilization: float = 0.35
    #: Scale-up sizing: on sustained breach the fleet jumps to
    #: ``ceil(live * utilization / target_utilization)`` nodes (HPA
    #: style — one checkpoint covers the whole deficit instead of
    #: chasing a surge one node at a time), clamped to ``max_nodes``.
    target_utilization: float = 0.75
    #: Admission control: shed ops whose modeled queue delay would
    #: exceed this many ms (the saturated-fleet pressure valve).
    shed_after_ms: float = 80.0
    #: ``False`` = monitor-only (measure SLO/shed but never scale).
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.slo_p99_ms <= 0:
            raise ConfigurationError("slo_p99_ms must be > 0")
        if self.min_nodes < 1:
            raise ConfigurationError("min_nodes must be >= 1")
        if self.max_nodes < self.min_nodes:
            raise ConfigurationError(
                f"max_nodes={self.max_nodes} < min_nodes={self.min_nodes}"
            )
        if self.node_capacity <= 0:
            raise ConfigurationError("node_capacity must be > 0")
        if self.check_every < 1:
            raise ConfigurationError("check_every must be >= 1 ticks")
        if self.breach_checks < 1 or self.idle_checks < 1:
            raise ConfigurationError(
                "breach_checks and idle_checks must be >= 1"
            )
        if not 0.0 < self.idle_utilization < 1.0:
            raise ConfigurationError(
                "idle_utilization must be in (0, 1)"
            )
        if not self.idle_utilization < self.target_utilization <= 1.0:
            raise ConfigurationError(
                "target_utilization must be in (idle_utilization, 1] "
                "(a scale-up target at or under the idle threshold "
                "would flap)"
            )
        if self.shed_after_ms < self.slo_p99_ms:
            raise ConfigurationError(
                "shed_after_ms must be >= slo_p99_ms (shedding is the "
                "last resort, not the first response)"
            )


class Autoscaler:
    """The per-shard SLO controller; one instance per driver shard.

    Holds the deterministic queue model and the scale/shed decision
    state. The driver calls :meth:`observe_op` once per op (before
    executing it — a shed op is never sent to the target) and
    :meth:`on_tick` from its per-op ``tick()`` hook, exactly where
    chaos events and scheduled rebalances fire.
    """

    def __init__(
        self, target: Any, config: AutoscalerConfig, seed: int
    ) -> None:
        """``target`` is the shard's store-like object; scaling needs
        the cluster membership API (``add_node``/``decommission``)."""
        if config.enabled and not (
            hasattr(target, "add_node")
            and hasattr(target, "decommission")
        ):
            raise ConfigurationError(
                "autoscaling needs a cluster target "
                "(--target cluster); store and network targets can "
                "only run monitor-only (enabled=False)"
            )
        # Deferred import: repro.workloads.driver imports this module.
        from repro.workloads.driver import LatencyHistogram

        self._histogram_cls = LatencyHistogram
        self.target = target
        self.config = config
        self.seed = seed
        #: Whole-run modeled-latency histogram (the controller's view).
        self.histogram = LatencyHistogram()
        self._window = LatencyHistogram()
        self._window_util_sum = 0.0
        self._window_ticks = 0
        self._backlog = 0.0
        self._breach_streak = 0
        self._idle_streak = 0
        #: Scale schedule, in decision order.
        self.events: List[ScaleEvent] = []
        self.shed_ops = 0
        self.slo_violations = 0
        self.measured_ops = 0
        self._node_ticks = 0
        self._total_ticks = 0

    def _live_count(self) -> int:
        """Live fleet size; a plain store counts as one node."""
        nodes = getattr(self.target, "nodes", None)
        if nodes is None:
            return 1
        return max(1, sum(1 for n in nodes if n.alive))

    def observe_op(self, tick: int, phase: str) -> bool:
        """Advance the queue model one op; returns ``False`` if shed.

        ``phase`` is ``"load"``, ``"warmup"``, or ``"measured"``: the
        load phase observes demand (so the backlog is warm) but is
        never shed, and only measured ops count toward the
        SLO-violation fraction. A shed op must still be fingerprinted
        by the caller as ``FAILED_OP_OUTCOME``.
        """
        cfg = self.config
        rate = cfg.arrival.rate(self.seed, tick)
        capacity = self._live_count() * cfg.node_capacity
        self._backlog = max(0.0, self._backlog - capacity / rate)
        utilization = rate / capacity
        self._window_util_sum += utilization
        self._window_ticks += 1
        self._node_ticks += self._live_count()
        self._total_ticks += 1
        queue_delay_ms = 1000.0 * self._backlog / capacity
        if phase != "load" and queue_delay_ms > cfg.shed_after_ms:
            self.shed_ops += 1
            if phase == "measured":
                # A shed op is an SLO violation from the client's
                # side (it got an error, not a slow answer) — counting
                # it keeps shedding from flattering the fraction.
                self.measured_ops += 1
                self.slo_violations += 1
            return False
        self._backlog += 1.0
        modeled_ms = 1000.0 * self._backlog / capacity
        modeled_ns = int(modeled_ms * 1e6)
        self._window.record(modeled_ns)
        self.histogram.record(modeled_ns)
        if phase == "measured":
            self.measured_ops += 1
            if modeled_ms > cfg.slo_p99_ms:
                self.slo_violations += 1
        return True

    def on_tick(self, tick: int) -> None:
        """Run the controller when ``tick`` lands on a checkpoint."""
        if tick % self.config.check_every != 0:
            return
        if self._window_ticks == 0:
            return
        cfg = self.config
        p99_ms = self._window.percentile(0.99) / 1e6
        utilization = self._window_util_sum / self._window_ticks
        self._window = self._histogram_cls()
        self._window_util_sum = 0.0
        self._window_ticks = 0

        breach = p99_ms > cfg.slo_p99_ms
        idle = not breach and utilization < cfg.idle_utilization
        self._breach_streak = self._breach_streak + 1 if breach else 0
        self._idle_streak = self._idle_streak + 1 if idle else 0
        if not cfg.enabled:
            return

        live = self._live_count()
        if breach and self._breach_streak >= cfg.breach_checks:
            # HPA-style sizing: jump to the utilization-implied fleet
            # (live * util is the offered load in node units), so one
            # checkpoint covers the whole deficit instead of chasing a
            # surge one node per period.
            desired = min(
                cfg.max_nodes,
                max(
                    live + 1,
                    math.ceil(
                        live * utilization / cfg.target_utilization
                    ),
                ),
            )
            streak = self._breach_streak
            while live < desired:
                node = self.target.add_node()
                live += 1
                self.events.append(
                    ScaleEvent(
                        at_op=tick,
                        action="add",
                        node=node.name,
                        nodes_after=live,
                        p99_ms=round(p99_ms, 3),
                        utilization=round(utilization, 4),
                        reason=(
                            f"p99 {p99_ms:.1f}ms > slo "
                            f"{cfg.slo_p99_ms:.1f}ms x{streak}"
                        ),
                    )
                )
            self._breach_streak = 0
        elif idle and self._idle_streak >= cfg.idle_checks:
            # The floor is min_nodes, but never below the target's
            # replication factor — decommission would (rightly) refuse
            # the drain, so don't ask.
            floor = max(
                cfg.min_nodes,
                getattr(self.target, "replication_factor", 1),
            )
            if live > floor:
                victim = min(
                    (n for n in self.target.nodes if n.alive),
                    key=lambda n: (n.load(), n.name),
                )
                self.target.decommission(victim)
                self.events.append(
                    ScaleEvent(
                        at_op=tick,
                        action="remove",
                        node=victim.name,
                        nodes_after=live - 1,
                        p99_ms=round(p99_ms, 3),
                        utilization=round(utilization, 4),
                        reason=(
                            f"utilization {utilization:.2f} < "
                            f"{cfg.idle_utilization:.2f} "
                            f"x{self._idle_streak}"
                        ),
                    )
                )
                self._idle_streak = 0

    @property
    def slo_violation_fraction(self) -> float:
        """Measured ops whose modeled latency breached the SLO."""
        if self.measured_ops == 0:
            return 0.0
        return self.slo_violations / self.measured_ops

    @property
    def avg_live_nodes(self) -> float:
        """Mean fleet size over the run, weighted by op ticks."""
        if self._total_ticks == 0:
            return float(self._live_count())
        return self._node_ticks / self._total_ticks

    def schedule_fingerprint(self) -> int:
        """CRC32 over the scale schedule; the determinism witness.

        Two same-seed runs must agree on this value exactly — it
        covers event order, ticks, actions, node names, and fleet
        sizes.
        """
        crc = 0
        for event in self.events:
            token = (
                f"{event.at_op}:{event.action}:"
                f"{event.node}:{event.nodes_after}"
            )
            crc = zlib.crc32(token.encode("utf-8"), crc)
        return crc

    def summary(self) -> Dict[str, Any]:
        """The elasticity payload merged into driver results."""
        return {
            "enabled": self.config.enabled,
            "shed_ops": self.shed_ops,
            "slo_violations": self.slo_violations,
            "measured_ops": self.measured_ops,
            "slo_violation_fraction": self.slo_violation_fraction,
            "avg_live_nodes": round(self.avg_live_nodes, 4),
            "final_live_nodes": self._live_count(),
            "modeled_p99_ms": round(
                self.histogram.percentile(0.99) / 1e6, 3
            ),
            "scale_events": [asdict(e) for e in self.events],
            "schedule_fingerprint": self.schedule_fingerprint(),
        }


def summarize_shards(
    summaries: List[Optional[Dict[str, Any]]],
) -> Optional[Dict[str, Any]]:
    """Merge per-shard elasticity payloads into one result block.

    Counters add; the schedule fingerprint chains shard fingerprints
    in shard order (bit-stable because shard schedules are themselves
    deterministic). Returns ``None`` when no shard ran a controller.
    """
    present = [s for s in summaries if s is not None]
    if not present:
        return None
    measured = sum(s["measured_ops"] for s in present)
    violations = sum(s["slo_violations"] for s in present)
    crc = 0
    for s in present:
        crc = zlib.crc32(
            s["schedule_fingerprint"].to_bytes(4, "big"), crc
        )
    return {
        "enabled": any(s["enabled"] for s in present),
        "shed_ops": sum(s["shed_ops"] for s in present),
        "slo_violations": violations,
        "measured_ops": measured,
        "slo_violation_fraction": (
            violations / measured if measured else 0.0
        ),
        "avg_live_nodes": round(
            sum(s["avg_live_nodes"] for s in present) / len(present), 4
        ),
        "scale_events": sum(
            (s["scale_events"] for s in present), []
        ),
        "schedule_fingerprint": crc,
        "shards": present,
    }
