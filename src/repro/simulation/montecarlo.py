"""Monte-Carlo estimation of collision probabilities.

Where no closed form exists (``Cluster*``, arbitrary adaptive
adversaries) we estimate ``p_A`` by playing many independent, seeded
games. Estimates carry Wilson-score confidence intervals, which behave
sensibly at the extreme frequencies (0 or all collisions) these
experiments regularly produce.

This module is a thin façade over :func:`repro.simulation.engines.run_plan`:
*how* trials execute — which engine (``python`` or ``numpy``), how
many worker processes, what precision to stop at — is described by one
frozen :class:`~repro.simulation.plan.SimulationPlan`:

    plan = SimulationPlan(engine="numpy", workers=0,
                          target_halfwidth=0.01)
    estimate_profile_collision(factory, m, profile,
                               trials=100_000, seed=7, plan=plan)

With ``target_halfwidth`` set, sampling stops at the first checkpoint
whose Wilson half-width is small enough (``trials`` then acts as the
cap); without it, exactly ``trials`` games run. Either way the
estimate is identical for any ``workers=`` count of the same plan;
only switching to the ``numpy`` engine changes the RNG universe (same
distribution, different noise).
"""

from __future__ import annotations

from typing import Optional

from repro.adversary.profiles import DemandProfile
from repro.simulation.batch import AdversaryFactory, ObliviousFactory
from repro.simulation.engines import run_plan
from repro.simulation.game import InstanceFactory
from repro.simulation.plan import SimulationPlan
from repro.simulation.stats import Estimate

_DEFAULT_PLAN = SimulationPlan()


def estimate_collision_probability(
    factory: InstanceFactory,
    m: int,
    adversary_factory: AdversaryFactory,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    confidence: Optional[float] = None,
    plan: Optional[SimulationPlan] = None,
) -> Estimate:
    """Play seeded games under ``plan``; return the collision frequency.

    Each trial gets a fresh adversary (they are stateful) and a derived
    seed, so the whole estimate is reproducible from ``seed`` (default
    ``plan.seed``). ``trials`` caps the sample; a plan with
    ``target_halfwidth`` stops earlier once the Wilson CI is tight
    enough, while the default fixed-mode plan runs the cap exactly.

    Execution (engine choice, worker processes) belongs to the plan —
    see :class:`SimulationPlan`.
    """
    return run_plan(
        _DEFAULT_PLAN if plan is None else plan,
        factory,
        m,
        adversary_factory,
        seed=seed,
        trials=trials,
        confidence=confidence,
    )


def estimate_profile_collision(
    factory: InstanceFactory,
    m: int,
    profile: DemandProfile,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    confidence: Optional[float] = None,
    plan: Optional[SimulationPlan] = None,
) -> Estimate:
    """Estimate ``p_A(D)`` for an oblivious profile ``D``.

    Oblivious sequential games admit every fast path: the
    ``generate_batch`` trial (bit-identical to the game loop) and the
    vectorized kernels of ``plan.engine = "numpy"``. See
    :func:`estimate_collision_probability` for the plan and
    reproducibility semantics.
    """
    return estimate_collision_probability(
        factory,
        m,
        ObliviousFactory(profile),
        trials=trials,
        seed=seed,
        confidence=confidence,
        plan=plan,
    )
