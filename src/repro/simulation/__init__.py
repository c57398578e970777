"""Game engine, Monte-Carlo estimation under a :class:`SimulationPlan`
(engines ``python`` and ``numpy``), process-parallel trial sharding,
vectorized NumPy kernels, and seeds.

The re-exports below are imported on first use (:mod:`repro._lazy`):
a caller that needs only :mod:`repro.simulation.seeds` does not load
the engines or the process pool."""

from repro._lazy import lazy_getattr

__all__ = [
    "Game",
    "GameResult",
    "play_profile",
    "Estimate",
    "estimate_collision_probability",
    "estimate_profile_collision",
    "wilson_interval",
    "derive_seed",
    "rng_for",
    "seed_stream",
    "SpecFactory",
    "ObliviousFactory",
    "AttackFactory",
    "play_trial",
    "count_range",
    "resolve_workers",
    "ENGINES",
    "SimulationPlan",
    "run_plan",
    "NUMPY_SEED_LABEL",
    "VectorPlan",
    "numpy_available",
    "plan_profile",
]

__getattr__ = lazy_getattr(
    globals(),
    {
        "repro.simulation.batch": (
            "AttackFactory",
            "ObliviousFactory",
            "SpecFactory",
            "count_range",
            "play_trial",
            "resolve_workers",
        ),
        "repro.simulation.engines": ("run_plan",),
        "repro.simulation.game": ("Game", "GameResult", "play_profile"),
        "repro.simulation.montecarlo": (
            "estimate_collision_probability",
            "estimate_profile_collision",
        ),
        "repro.simulation.plan": ("ENGINES", "SimulationPlan"),
        "repro.simulation.seeds": ("derive_seed", "rng_for", "seed_stream"),
        "repro.simulation.stats": ("Estimate", "wilson_interval"),
        "repro.simulation.vectorized": (
            "NUMPY_SEED_LABEL",
            "VectorPlan",
            "numpy_available",
            "plan_profile",
        ),
    },
)
