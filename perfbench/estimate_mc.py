"""Workload ``estimate-mc``: a fixed suite of collision-probability estimates.

One process, ``workers=1``. Each round runs five legs, with trial counts
sized so every leg takes a similar share of the time:

* python engine: Cluster* at m=2^20 on a uniform(16, 256) profile (the
  batched ``generate_batch`` path), and the Lemma-7 closest-pair attack
  on Cluster at n=8, d=1024 (the game loop plus an adversary);
* NumPy engine: E1's Cluster workload, E3's Random workload (both from
  ``benchmarks/bench_engines.py``) and Cluster* (vectorized, replaying a
  few trials through the python path).

Op kind a is one python-engine trial and kind b one NumPy-engine trial;
each round contributes one per-trial time sample of each kind. No KV
layer runs here.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from perfbench.host import GCMeter, HostReference
from perfbench.inputs import sub_rng
from perfbench.layers import add_estimation_layers, estimation_layer_metrics
from perfbench.measure import ChunkClock, Config, Result, SetupTimer, own_peak_rss_mb
from perfbench.stats import Series
from perfbench.trace import Tracer

#: E6's straddle rule: |estimate - exact| <= 3 * CI width + slack.
E6_SLACK = 0.02
#: Fresh processes whose set-up is timed.
SETUP_REPEATS = 15
#: End-to-end metrics published raw: the tails. A tail picks the
#: rounds that met a burst of host noise, which the kernel samples at a
#: round's two ends see least well, so scaling widened their spread
#: (README, "A drifting host").
RAW_METRICS = ("a_tail_us", "b_tail_us")


@dataclass
class Leg:
    """One estimate of the suite, repeated every round."""

    name: str
    engine: str
    estimate: Callable[[int, int], object]  # (trials, seed) -> Estimate
    trials: int
    exact: Optional[Callable[[], object]] = None
    successes: int = 0
    played: int = 0


def make_legs() -> List[Leg]:
    """The fixed suite; trial counts give each leg about 10 ms a round."""
    from repro.adversary.attacks import ClosestPairAttack
    from repro.adversary.profiles import DemandProfile
    from repro.analysis.adaptive import closest_pair_attack_cluster_exact
    from repro.analysis.exact import (
        cluster_collision_probability,
        random_collision_probability,
    )
    from repro.simulation.batch import AttackFactory, SpecFactory
    from repro.simulation.montecarlo import (
        estimate_collision_probability,
        estimate_profile_collision,
    )
    from repro.simulation.plan import SimulationPlan

    python = SimulationPlan(engine="python")
    numpy = SimulationPlan(engine="numpy")
    star = DemandProfile.uniform(16, 256)
    e1 = DemandProfile.uniform(16, 256)
    e3 = DemandProfile.uniform(8, 512)

    def profile(spec, m, demand, plan):
        return lambda trials, seed: estimate_profile_collision(
            SpecFactory(spec), m, demand, trials=trials, seed=seed, plan=plan
        )

    def lemma7(trials, seed):
        return estimate_collision_probability(
            SpecFactory("cluster"), 1 << 20,
            AttackFactory(ClosestPairAttack, n=8, d=1024),
            trials=trials, seed=seed, plan=python,
        )

    return [
        Leg("cluster_star.python", "python", profile("cluster*", 1 << 20, star, python), 5),
        Leg(
            "lemma7.python", "python", lemma7, 9,
            exact=lambda: closest_pair_attack_cluster_exact(1 << 20, 8, 1024),
        ),
        Leg(
            "e1_cluster.numpy", "numpy", profile("cluster", 1 << 24, e1, numpy), 12_500,
            exact=lambda: cluster_collision_probability(1 << 24, e1),
        ),
        Leg(
            "e3_random.numpy", "numpy", profile("random", 1 << 24, e3, numpy), 50,
            exact=lambda: random_collision_probability(1 << 24, e3),
        ),
        Leg("cluster_star.numpy", "numpy", profile("cluster*", 1 << 20, star, numpy), 400),
    ]


def check_legs(legs: List[Leg], problems: List[str], extra: dict) -> None:
    """Closed forms must fall inside E6's band around the pooled
    estimate; the two Cluster* legs must agree within their intervals."""
    from repro.simulation.stats import wilson_interval

    intervals = {}
    for leg in legs:
        p = leg.successes / leg.played
        low, high = wilson_interval(leg.successes, leg.played, 0.95)
        intervals[leg.name] = (p, high - low)
        extra[f"estimate.{leg.name}"] = p
        if leg.exact is not None:
            exact = float(leg.exact())
            if abs(p - exact) > 3 * (high - low) + E6_SLACK:
                problems.append(
                    f"{leg.name}: estimate {p:.4f} misses exact {exact:.4f}"
                )
    (p1, w1), (p2, w2) = intervals["cluster_star.python"], intervals["cluster_star.numpy"]
    if abs(p1 - p2) > w1 + w2 + E6_SLACK:
        problems.append(f"Cluster* engines disagree: {p1:.4f} vs {p2:.4f}")


def _seed_base(config: Config) -> int:
    return sub_rng(config.seed, "estimate-mc").getrandbits(48)


def setup(config: Config, timer: SetupTimer) -> List[Leg]:
    """Everything before the first measured trial: the imports and the
    suite, then one small warm-up estimate of every leg, each a timed
    step."""
    with timer.step():
        legs = make_legs()
    seed_base = _seed_base(config)
    for index, leg in enumerate(legs):
        with timer.step():
            leg.estimate(1 if leg.engine == "python" else 64, seed_base + index)
    return legs


def close(state) -> None:
    """Nothing to release."""


def run(config: Config) -> Result:
    """Set up, measure and check; see the module docstring."""
    legs = setup(config, SetupTimer())
    ref = HostReference()
    seed_base = _seed_base(config)
    tracer = Tracer()
    if config.trace:
        add_estimation_layers(tracer)
    a, b = Series(900_000), Series(900_000)
    now = time.perf_counter_ns
    trials_done = 0
    traced_ns = 0
    rounds = 0
    engine_trials = {"python": 0, "numpy": 0}
    engine_scaled_ns = {"python": 0.0, "numpy": 0.0}
    gc.collect()
    with GCMeter() as gc_meter:
        clock = ChunkClock(ref, config.seconds, config.trace)
        while clock.more():
            tracing = clock.tracing
            if tracing:
                tracer.install()
            else:
                gc_meter.active = True
            spent = {"python": 0, "numpy": 0}
            played = {"python": 0, "numpy": 0}
            start = now()
            for index, leg in enumerate(legs):
                begin = now()
                estimate = leg.estimate(leg.trials, seed_base + 16 * (rounds + 1) + index)
                spent[leg.engine] += now() - begin
                played[leg.engine] += estimate.trials
                leg.successes += estimate.successes
                leg.played += estimate.trials
            elapsed = now() - start
            gc_meter.active = False
            if tracing:
                tracer.uninstall()
                traced_ns += spent["python"] + spent["numpy"]
            rounds += 1
            trials_done += played["python"] + played["numpy"]
            factor = clock.finish_chunk(elapsed, played["python"] + played["numpy"])
            if not tracing:
                a.extend([spent["python"] / played["python"] / 1000.0], factor)
                b.extend([spent["numpy"] / played["numpy"] / 1000.0], factor)
                for engine in engine_trials:
                    engine_trials[engine] += played[engine]
                    engine_scaled_ns[engine] += spent[engine] * factor
    problems: List[str] = []
    result = Result(
        kind_names=("python", "numpy"),
        clock=clock,
        a=a,
        b=b,
        peak_rss_mb=own_peak_rss_mb(),
        attempted=trials_done,
        failed=0,
        problems=problems,
        gc_ns=gc_meter.ns,
        traced_op_ns=traced_ns,
    )
    check_legs(legs, problems, result.extra)
    for engine, trials in engine_trials.items():
        result.extra[f"{engine}_trials_per_s"] = trials / (engine_scaled_ns[engine] / 1e9)
    if config.trace:
        agg = tracer.aggregate()
        result.layers.update(estimation_layer_metrics(agg, tracer.counts()))
        result.covered_ns = agg.total_ns["plan.run"]
        result.tracer = tracer
    return result
