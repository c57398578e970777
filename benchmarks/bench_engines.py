"""Engine speedup matrix: python vs NumPy Monte-Carlo trial kernels.

One benchmark measures the oblivious Monte-Carlo legs of E1/E2/E3,
Cluster* on ``estimate-mc``'s profile, and E3's profile on a universe
above 2^32 that is not a power of two, at equal trial counts under
both engines (python × numpy, serial × workers) and records the
wall-clock matrix in the benchmark JSON artifact. The single-worker
``numpy`` engine must beat ``python`` by at least 5× on every
workload (enforced on full-scale runs only; smoke runs with
``REPRO_BENCH_SCALE < 1`` just record the numbers), and the sharded
leg must stay bit-identical to the serial one — the NumPy speedup
multiplies with the ``workers=`` speedup instead of replacing it.

A second benchmark compares **adaptive precision vs fixed trial
counts** per workload: a :class:`SimulationPlan` with
``target_halfwidth`` stops at the first Wilson checkpoint that is
tight enough, and the artifact records how many trials that saved
against the fixed-count leg (``*_fixed_trials`` vs
``*_adaptive_trials``).

Knobs: ``REPRO_BENCH_ENGINE_TRIALS`` (base trial count, default 1500),
``REPRO_BENCH_SCALE`` (multiplier, CI smoke sets it well below 1) and
``REPRO_BENCH_SPEEDUP_WORKERS`` (worker count of the sharded leg).
"""

import functools
import os
import time
from dataclasses import replace

import pytest

from benchmarks.conftest import BENCH_SEED
from repro.adversary.profiles import DemandProfile
from repro.simulation.batch import SpecFactory
from repro.simulation.montecarlo import estimate_profile_collision
from repro.simulation.plan import SimulationPlan
from repro.simulation.vectorized import numpy_available

#: (label, spec, m, profile) — the oblivious workloads of E1, E2, E3,
#: and the Cluster* leg of perfbench's ``estimate-mc``, whose universes
#: are powers of two up to 2^24 (the kernels mask draws and work in
#: uint32), and Random on a universe past 2^32 that is not a power of
#: two (a modulo with rejection, in uint64).
WORKLOADS = [
    ("e01_cluster", "cluster", 1 << 24, DemandProfile.uniform(16, 256)),
    ("e02_bins", "bins:64", 1 << 20, DemandProfile.uniform(8, 128)),
    ("e03_random", "random", 1 << 24, DemandProfile.uniform(8, 512)),
    ("cluster_star", "cluster_star", 1 << 20, DemandProfile.uniform(16, 256)),
    ("random_wide", "random", (1 << 32) + 15, DemandProfile.uniform(8, 512)),
]


def _trials() -> int:
    base = int(os.environ.get("REPRO_BENCH_ENGINE_TRIALS", "1500"))
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1"))
    return max(50, int(base * scale))


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_engine_speedup_matrix(benchmark):
    """python vs numpy × serial vs workers on every workload."""
    if not numpy_available():
        pytest.skip("NumPy not installed; the numpy engine cannot run")
    trials = _trials()
    workers = int(os.environ.get("REPRO_BENCH_SPEEDUP_WORKERS", "4"))
    scaled_down = float(os.environ.get("REPRO_BENCH_SCALE", "1")) < 1
    benchmark.extra_info["trials"] = trials
    speedups = {}
    for index, (label, spec, m, profile) in enumerate(WORKLOADS):
        estimate = functools.partial(
            estimate_profile_collision,
            SpecFactory(spec),
            m,
            profile,
            trials=trials,
            seed=BENCH_SEED,
        )
        python_est, python_seconds = _timed(
            functools.partial(estimate, plan=SimulationPlan(engine="python"))
        )
        if index == 0:
            # The numpy leg of the first workload doubles as
            # pytest-benchmark's timed sample.
            numpy_runner = functools.partial(
                benchmark.pedantic,
                functools.partial(
                    estimate, plan=SimulationPlan(engine="numpy")
                ),
                rounds=1,
                iterations=1,
            )
        else:
            numpy_runner = functools.partial(
                estimate, plan=SimulationPlan(engine="numpy")
            )
        numpy_est, numpy_seconds = _timed(numpy_runner)
        # Separate RNG universes: the estimates agree statistically
        # (both CIs must cover the common truth), never bit-for-bit.
        assert (
            abs(python_est.probability - numpy_est.probability)
            <= (python_est.ci_high - python_est.ci_low)
            + (numpy_est.ci_high - numpy_est.ci_low)
            + 0.02
        ), f"{label}: engines disagree ({python_est} vs {numpy_est})"
        sharded_est, sharded_seconds = _timed(
            functools.partial(
                estimate,
                plan=SimulationPlan(engine="numpy", workers=workers),
            )
        )
        assert sharded_est == numpy_est, (
            f"{label}: numpy engine not bit-identical across workers "
            f"({sharded_est!r} != {numpy_est!r})"
        )
        speedup = python_seconds / numpy_seconds if numpy_seconds else 0.0
        speedups[label] = speedup
        benchmark.extra_info[f"{label}_python_seconds"] = python_seconds
        benchmark.extra_info[f"{label}_numpy_seconds"] = numpy_seconds
        benchmark.extra_info[f"{label}_numpy_workers_seconds"] = (
            sharded_seconds
        )
        benchmark.extra_info[f"{label}_workers"] = workers
        benchmark.extra_info[f"{label}_speedup"] = speedup
        print(
            f"\n{label}: python {python_seconds:.2f}s vs numpy "
            f"{numpy_seconds:.3f}s -> {speedup:.1f}x "
            f"(numpy workers={workers}: {sharded_seconds:.3f}s)"
        )
    if not scaled_down:
        worst = min(speedups, key=speedups.get)
        assert speedups[worst] >= 5.0, (
            f"numpy engine speedup fell below 5x on {worst}: "
            f"{speedups[worst]:.2f}x"
        )


def test_adaptive_vs_fixed_trials(benchmark):
    """Adaptive precision stops early: trials saved per workload.

    For each workload the fixed leg runs the full trial budget; the
    adaptive leg targets twice the fixed leg's achieved Wilson
    half-width (an easier precision, i.e. a quality bar the schedule
    can hit before the cap) and records how many trials it actually
    needed. Whenever the budget leaves room to stop early (cap >
    2x the first checkpoint), the adaptive leg must use fewer trials;
    both counts land in the JSON artifact.
    """
    trials = _trials()
    benchmark.extra_info["trials"] = trials
    engine = "numpy" if numpy_available() else "python"
    fixed_plan = SimulationPlan(engine=engine)

    def run_workloads():
        for label, spec, m, profile in WORKLOADS:
            estimate = functools.partial(
                estimate_profile_collision,
                SpecFactory(spec),
                m,
                profile,
                trials=trials,
                seed=BENCH_SEED,
            )
            fixed, fixed_seconds = _timed(
                functools.partial(estimate, plan=fixed_plan)
            )
            target = max(2.0 * fixed.halfwidth, 1e-6)
            adaptive_plan = replace(fixed_plan, target_halfwidth=target)
            adaptive, adaptive_seconds = _timed(
                functools.partial(estimate, plan=adaptive_plan)
            )
            assert adaptive.halfwidth <= target or adaptive.trials == trials, (
                f"{label}: adaptive leg stopped at {adaptive} without "
                f"reaching the {target:.4g} half-width target or the cap"
            )
            if trials >= 2 * adaptive_plan.min_trials:
                assert adaptive.trials < fixed.trials, (
                    f"{label}: adaptive mode used {adaptive.trials} trials, "
                    f"no fewer than the fixed {fixed.trials}"
                )
            benchmark.extra_info[f"{label}_engine"] = engine
            benchmark.extra_info[f"{label}_fixed_trials"] = fixed.trials
            benchmark.extra_info[f"{label}_adaptive_trials"] = adaptive.trials
            benchmark.extra_info[f"{label}_target_halfwidth"] = target
            benchmark.extra_info[f"{label}_adaptive_halfwidth"] = (
                adaptive.halfwidth
            )
            benchmark.extra_info[f"{label}_fixed_seconds"] = fixed_seconds
            benchmark.extra_info[f"{label}_adaptive_seconds"] = (
                adaptive_seconds
            )
            print(
                f"\n{label}: fixed {fixed.trials} trials "
                f"({fixed_seconds:.3f}s) vs adaptive {adaptive.trials} "
                f"({adaptive_seconds:.3f}s) at half-width <= {target:.4g}"
            )

    benchmark.pedantic(run_workloads, rounds=1, iterations=1)
