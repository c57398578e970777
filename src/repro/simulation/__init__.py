"""Game engine, Monte-Carlo estimation under a :class:`SimulationPlan`
(engines ``python`` and ``numpy``), process-parallel trial sharding,
vectorized NumPy kernels, and seeds."""

from repro.simulation.batch import (
    AttackFactory,
    ObliviousFactory,
    SpecFactory,
    count_range,
    play_trial,
    resolve_workers,
)
from repro.simulation.engines import run_plan
from repro.simulation.game import Game, GameResult, play_profile
from repro.simulation.montecarlo import (
    Estimate,
    estimate_collision_probability,
    estimate_profile_collision,
    wilson_interval,
)
from repro.simulation.plan import (
    ENGINES,
    RoundResult,
    SimulationPlan,
    TrialTask,
)
from repro.simulation.seeds import derive_seed, rng_for, seed_stream
from repro.simulation.vectorized import (
    NUMPY_SEED_LABEL,
    VectorPlan,
    numpy_available,
    plan_profile,
)

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
    "TrialTask",
    "RoundResult",
    "run_plan",
    "NUMPY_SEED_LABEL",
    "VectorPlan",
    "numpy_available",
    "plan_profile",
]
