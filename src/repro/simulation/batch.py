"""Trial execution: the factory shims, one trial, and a range of trials.

This module is the engine room beneath
:func:`repro.simulation.engines.run_plan`, which hands the trial-index
range up to each checkpoint to :func:`count_range` here. Three
mechanisms live in this file:

* **Sharding** — independent seeded trials are strided across the
  worker processes of the pool the caller hands in. Every trial's
  randomness derives from ``(root seed, trial index)`` alone via
  :func:`repro.simulation.seeds.derive_seed`, so the collision count —
  and therefore the :class:`~repro.simulation.stats.Estimate` — is
  bit-identical at any worker count, including the serial path.
* **The fast path** — oblivious sequential games skip the step-by-step
  game loop entirely: each instance produces its whole demand vector
  through :meth:`repro.core.base.IDGenerator.generate_batch` and
  collisions are detected with set operations. The per-trial collision
  outcome is the same as the game loop's, so estimates never change.
  Every other adversary factory plays the game loop.
* **Vectorization** — the ``numpy`` kind goes further and simulates a
  whole block of oblivious trials as array operations
  (:mod:`repro.simulation.vectorized`). Dispatch requires a
  :class:`SpecFactory` for one of the five core algorithms plus an
  :class:`ObliviousFactory`; anything else (adaptive
  attacks, custom factories, out-of-regime profiles, a missing NumPy)
  silently runs the python path. Unlike ``workers`` — a pure
  go-faster knob — the NumPy engine is a *separate RNG universe*:
  estimates are reproducible per engine but differ across engines by
  ordinary Monte-Carlo noise.

Worker processes must be able to *pickle* the instance and adversary
factories. The lambdas that are idiomatic for in-process use don't
pickle, so this module also ships three picklable factory shims:
:class:`SpecFactory` (registry spec string → generator),
:class:`ObliviousFactory` (demand profile → oblivious adversary) and
:class:`AttackFactory` (adversary class + kwargs → adaptive adversary).
"""

from __future__ import annotations

import os
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.adversary.base import Adversary, ObliviousAdversary
from repro.adversary.profiles import DemandProfile
from repro.core.registry import make_generator
from repro.errors import ConfigurationError, GameError
from repro.simulation import vectorized
from repro.simulation.game import Game, InstanceFactory
from repro.simulation.plan import ENGINES
from repro.simulation.seeds import derive_seed, rng_for

#: Seed-path label for the per-trial adversary RNG. Must stay in sync
#: with the historical value used by ``estimate_collision_probability``
#: so existing seeds reproduce existing estimates.
ADVERSARY_SEED_LABEL = 0xAD

AdversaryFactory = Callable[..., Adversary]


# ---------------------------------------------------------------------------
# Picklable factory shims
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecFactory:
    """A picklable :data:`InstanceFactory` built from a registry spec.

    ``SpecFactory("bins:16")(m, rng)`` is
    ``make_generator("bins:16", m, rng)``; unlike the equivalent lambda
    it crosses process boundaries, which is what lets experiments and
    the CLI fan trials out across workers.
    """

    spec: str

    def __call__(self, m: int, rng) -> Any:
        return make_generator(self.spec, m, rng)


@dataclass(frozen=True)
class ObliviousFactory:
    """A picklable adversary factory replaying a fixed demand profile
    in sequential order.

    The factory is also *batchable*: :func:`play_trial` recognizes it
    and switches to the ``generate_batch`` trial path.
    """

    profile: DemandProfile

    def __call__(self, rng) -> Adversary:
        return ObliviousAdversary(self.profile, rng=rng)


@dataclass(frozen=True)
class AttackFactory:
    """A picklable adversary factory from a class and keyword arguments.

    ``AttackFactory(ClosestPairAttack, n=8, d=1024)`` builds a fresh
    (stateful) attack per trial, like the lambdas it replaces. The class
    is pickled by reference, so any module-level adversary class works.

    The class must take an ``rng`` keyword: it gets the derived
    per-trial RNG, so any randomness the attack uses is fully
    seed-derived. An explicit ``rng=`` in ``kwargs`` wins.
    """

    attack_cls: type
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def __init__(self, attack_cls: type, **kwargs: Any):
        object.__setattr__(self, "attack_cls", attack_cls)
        object.__setattr__(self, "kwargs", kwargs)

    def __call__(self, rng) -> Adversary:
        return self.attack_cls(**{"rng": rng, **self.kwargs})


# ---------------------------------------------------------------------------
# Single-trial execution (game loop or generate_batch fast path)
# ---------------------------------------------------------------------------


def _batchable_profile(
    adversary_factory: AdversaryFactory,
) -> Optional[DemandProfile]:
    """The demand profile, if the factory admits the batched fast path."""
    if (
        isinstance(adversary_factory, ObliviousFactory)
        # Empty profiles must keep flowing through the game loop, which
        # rejects them ("adversary stopped without making any request");
        # the batched path would silently report no collision instead.
        and len(adversary_factory.profile.demands) > 0
    ):
        return adversary_factory.profile
    return None


def _play_profile_trial_batched(
    factory: InstanceFactory,
    m: int,
    profile: DemandProfile,
    game_seed: int,
) -> bool:
    """One oblivious sequential trial without the game loop.

    Instance ``i`` gets ``rng_for(game_seed, i)`` — the exact RNG the
    :class:`Game` engine would hand it — and emits its whole demand via
    ``generate_batch``. The trial collides iff two instances share an
    ID, and stops at the first mid-batch exhaustion, mirroring the
    engine's semantics, so the collision outcome is identical.
    """
    seen: set = set()
    for index, demand in enumerate(profile.demands):
        generator = factory(m, rng_for(game_seed, index))
        ids = generator.generate_batch(demand)
        fresh = set(ids)
        if len(fresh) != len(ids):
            raise GameError(
                f"generator bug: instance {index} repeated an ID"
            )
        if not seen.isdisjoint(fresh):
            return True
        seen |= fresh
        if len(ids) < demand:  # exhausted mid-batch: the game stops here
            return False
    return False


def play_trial(
    factory: InstanceFactory,
    m: int,
    adversary_factory: AdversaryFactory,
    seed: int,
    trial: int,
) -> bool:
    """Play trial number ``trial`` and return whether it collided.

    This is *the* definition of a trial: both the serial loop and every
    worker process call it, which is what makes estimates independent
    of how trials are scheduled. Oblivious sequential profiles take the
    ``generate_batch`` fast path; everything else plays the game loop,
    which ends at the first collision.
    """
    profile = _batchable_profile(adversary_factory)
    if profile is not None:
        return _play_profile_trial_batched(
            factory, m, profile, derive_seed(seed, trial)
        )
    adversary = adversary_factory(rng_for(seed, trial, ADVERSARY_SEED_LABEL))
    game = Game(factory, m, adversary, seed=derive_seed(seed, trial))
    return game.run().collided


# ---------------------------------------------------------------------------
# Sharded execution
# ---------------------------------------------------------------------------

def _vector_plan(
    factory: InstanceFactory,
    m: int,
    adversary_factory: AdversaryFactory,
) -> Optional["vectorized.VectorPlan"]:
    """The NumPy execution plan, if this workload admits one.

    Requires a :class:`SpecFactory` (the kernels dispatch on the spec
    string) and a batchable oblivious profile; the remaining gates live
    in :func:`repro.simulation.vectorized.plan_profile`. Deterministic
    in its arguments, so every worker process reaches the same verdict.
    """
    if not isinstance(factory, SpecFactory):
        return None
    profile = _batchable_profile(adversary_factory)
    if profile is None:
        return None
    return vectorized.plan_profile(factory.spec, m, profile)


#: Everything a worker needs to play its stride of trials.
_TrialBlock = Tuple[
    InstanceFactory,  # factory
    int,  # m
    AdversaryFactory,  # adversary_factory
    int,  # seed
    int,  # offset — first trial index of this block
    int,  # stride — number of blocks (trials offset, offset+stride, ...)
    int,  # trials — total trial count across all blocks
    str,  # kind — "python" or "numpy"
]


def _run_trial_block(payload: _TrialBlock) -> int:
    """Play trials ``offset, offset+stride, ...`` and count collisions."""
    factory, m, adversary_factory, seed, offset, stride, trials, kind = payload
    if kind == "numpy":
        plan = _vector_plan(factory, m, adversary_factory)
        if plan is not None:
            return plan.count_collisions(seed, offset, stride, trials)
    return sum(
        play_trial(factory, m, adversary_factory, seed, trial)
        for trial in range(offset, trials, stride)
    )


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers=`` option to a concrete process count.

    ``None`` and ``1`` mean in-process serial execution; ``0`` means
    "one per CPU"; anything negative is a configuration error.
    """
    if workers is None:
        return 1
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def count_range(
    factory: InstanceFactory,
    m: int,
    adversary_factory: AdversaryFactory,
    seed: int,
    start: int,
    stop: int,
    kind: str = "python",
    executor: Optional[Executor] = None,
    workers: int = 1,
) -> int:
    """Count collisions over the trial indices ``[start, stop)``.

    The partition-invariant primitive beneath
    :func:`repro.simulation.engines.run_plan`: each trial's outcome is a
    pure function of ``(seed, trial index)``, so counts over any index
    range compose by addition and never depend on ``workers`` or on
    the checkpoints at which a caller splits the range. ``kind`` is the
    engine (``python``/``numpy``) whose trials to play.

    With an ``executor`` the range is strided across up to ``workers``
    blocks that run in its processes; without one it runs in-process.
    The caller owns the pool: this function neither checks that the
    factories pickle nor spawns processes.
    """
    if kind not in ENGINES:
        raise ConfigurationError(
            f"unknown trial kind {kind!r}; expected one of "
            f"{', '.join(ENGINES)}"
        )
    if stop <= start:
        return 0
    shards = 1 if executor is None else min(workers, stop - start)
    payloads = [
        (factory, m, adversary_factory, seed, start + shard, shards, stop, kind)
        for shard in range(shards)
    ]
    if shards == 1:
        return _run_trial_block(payloads[0])
    return sum(executor.map(_run_trial_block, payloads))
