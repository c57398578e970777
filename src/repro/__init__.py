"""repro — reproduction of "Optimal Uncoordinated Unique IDs" (PODS 2023).

Public API highlights:

* algorithms: :class:`RandomGenerator`, :class:`ClusterGenerator`,
  :class:`BinsGenerator`, :class:`ClusterStarGenerator`,
  :class:`BinsStarGenerator`, :class:`SkewAwareGenerator`,
  :func:`make_generator`;
* the game: :class:`DemandProfile`, :class:`Game`,
  :class:`ObliviousAdversary`, :class:`ClosestPairAttack`,
  :func:`estimate_collision_probability`;
* exact analysis: :func:`exact_collision_probability`,
  :func:`p_star_lower_bound`, :func:`p_star_upper_bound`,
  :func:`competitive_ratio_upper`;
* the KV-store substrate: :class:`repro.kvstore.MiniRocks`,
  :class:`repro.distributed.ClusterSimulator` (not re-exported here;
  see those subpackages).

Every name above is imported on first use (:mod:`repro._lazy`), so
importing one subsystem does not load the others.

Estimation plans
----------------

Every Monte-Carlo estimate runs under one frozen
:class:`SimulationPlan` (:mod:`repro.simulation.plan`) naming the
engine — ``python`` (the reference RNG universe) or ``numpy``
(vectorized kernels, its own universe); :data:`ENGINES` lists both —
the worker-process count, and optionally an adaptive precision target:

* ``estimate_collision_probability(..., plan=SimulationPlan(workers=N))``
  shards trials across ``N`` processes; per-trial seed derivation
  makes the result **bit-identical at any worker count**.
  Factories must pickle to cross process boundaries — use
  :class:`SpecFactory`, :class:`ObliviousFactory`, or
  :class:`AttackFactory` instead of lambdas.
* ``SimulationPlan(target_halfwidth=0.01)`` stops sampling at the
  first seeded checkpoint whose Wilson-CI half-width is tight enough
  (the ``trials=`` argument then caps the budget).
* every :class:`IDGenerator` offers ``generate_batch(count)``, a
  vectorized fast path producing whole demand vectors per call
  (optimized for ``Random``, ``Bins``, ``Cluster`` and ``Cluster*``);
  the python engine uses it for every oblivious sequential profile.
"""

from repro._lazy import lazy_getattr

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # algorithms
    "IDGenerator",
    "RandomGenerator",
    "ClusterGenerator",
    "BinsGenerator",
    "ClusterStarGenerator",
    "BinsStarGenerator",
    "SkewAwareGenerator",
    "make_generator",
    "available_algorithms",
    # game
    "DemandProfile",
    "Game",
    "GameResult",
    "play_profile",
    "ObliviousAdversary",
    "ClosestPairAttack",
    "GreedyGapAttack",
    "RunSaturationAttack",
    "PhiDistribution",
    "Estimate",
    "estimate_collision_probability",
    "estimate_profile_collision",
    "SimulationPlan",
    "run_plan",
    "ENGINES",
    "SpecFactory",
    "ObliviousFactory",
    "AttackFactory",
    # analysis
    "exact_collision_probability",
    "optimal_uniform_collision",
    "p_star_lower_bound",
    "p_star_upper_bound",
    "competitive_ratio_upper",
    # errors
    "ReproError",
    "ConfigurationError",
    "GameError",
    "ProfileError",
    "IDSpaceExhaustedError",
]

__getattr__ = lazy_getattr(
    globals(),
    {
        "repro.adversary": (
            "ClosestPairAttack",
            "DemandProfile",
            "GreedyGapAttack",
            "ObliviousAdversary",
            "PhiDistribution",
            "RunSaturationAttack",
        ),
        "repro.analysis": (
            "competitive_ratio_upper",
            "exact_collision_probability",
            "optimal_uniform_collision",
            "p_star_lower_bound",
            "p_star_upper_bound",
        ),
        "repro.core": (
            "BinsGenerator",
            "BinsStarGenerator",
            "ClusterGenerator",
            "ClusterStarGenerator",
            "IDGenerator",
            "RandomGenerator",
            "SkewAwareGenerator",
            "available_algorithms",
            "make_generator",
        ),
        "repro.errors": (
            "ConfigurationError",
            "GameError",
            "IDSpaceExhaustedError",
            "ProfileError",
            "ReproError",
        ),
        "repro.simulation": (
            "ENGINES",
            "AttackFactory",
            "Estimate",
            "Game",
            "GameResult",
            "ObliviousFactory",
            "SimulationPlan",
            "SpecFactory",
            "estimate_collision_probability",
            "estimate_profile_collision",
            "play_profile",
            "run_plan",
        ),
    },
)
