"""Executing a :class:`~repro.simulation.plan.SimulationPlan`.

:func:`run_plan` is every Monte-Carlo estimate. For each checkpoint
of the plan's schedule it plays the trials up to that checkpoint with
one :func:`~repro.simulation.batch.count_range` call, then updates the
Wilson interval and, in adaptive mode, evaluates the stop rule.

The two engines share this loop and differ only in the trial kind
they hand to :func:`~repro.simulation.batch.count_range`: ``python``
(the ``generate_batch`` fast path or the game loop) or ``numpy`` (the
vectorized kernels, a separate RNG universe). On a host without NumPy
the ``numpy`` engine runs the python kind after a once-per-process
warning.

With ``workers`` > 1 one process pool serves every checkpoint of a
run. The factories are checked for picklability once, when the pool
would be created; factories that do not pickle run serially after a
warning. Both warnings point at the first caller outside
:mod:`repro.simulation` — the line that called ``estimate_*`` or
:func:`run_plan`.
"""

from __future__ import annotations

import os
import pickle
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from repro.simulation import vectorized
from repro.simulation.batch import (
    AdversaryFactory,
    count_range,
    resolve_workers,
)
from repro.simulation.game import InstanceFactory
from repro.simulation.plan import SimulationPlan
from repro.simulation.stats import Estimate, wilson_interval

#: Frames from this directory are skipped when attributing a warning.
_PACKAGE_DIR = os.path.dirname(__file__)

#: Fires the numpy-missing fallback warning once per process instead of
#: once per estimate (experiment sweeps made it deafening).
_numpy_fallback_warned = False


def _caller_stacklevel() -> int:
    """The ``warnings`` stacklevel of the first frame outside the package,
    counted from the function that calls this one."""
    level = 1
    frame = sys._getframe(1)
    while (
        frame.f_back is not None
        and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR
    ):
        frame = frame.f_back
        level += 1
    return level


def _engine_kind(engine: str) -> str:
    """The trial kind ``engine`` runs as on this host."""
    global _numpy_fallback_warned
    if engine != "numpy" or vectorized.numpy_available():
        return engine
    if not _numpy_fallback_warned:
        _numpy_fallback_warned = True
        warnings.warn(
            "NumPy is not installed; engine='numpy' falling back to "
            "the python engine (estimates will match engine='python', "
            "not a NumPy-equipped host; this warning fires once per "
            "process)",
            RuntimeWarning,
            stacklevel=_caller_stacklevel(),
        )
    return "python"


def _pool_size(
    factory: InstanceFactory, adversary_factory: AdversaryFactory, workers: int
) -> int:
    """``workers``, or 1 (with a warning) if the factories do not pickle."""
    if workers <= 1:
        return 1
    try:
        pickle.dumps((factory, adversary_factory))
    except (pickle.PicklingError, TypeError, AttributeError, ValueError) as exc:
        # The documented failure modes of pickle.dumps: closures and
        # local classes (PicklingError/AttributeError), unsupported
        # types (TypeError), recursive/invalid state (ValueError).
        warnings.warn(
            f"factories are not picklable ({type(exc).__name__}: {exc}); "
            "running trials serially (use SpecFactory / ObliviousFactory "
            "/ AttackFactory for cross-process execution)",
            RuntimeWarning,
            stacklevel=_caller_stacklevel(),
        )
        return 1
    return workers


def run_plan(
    plan: SimulationPlan,
    factory: InstanceFactory,
    m: int,
    adversary_factory: AdversaryFactory,
    seed: Optional[int] = None,
    trials: Optional[int] = None,
    confidence: Optional[float] = None,
) -> Estimate:
    """Estimate the collision probability of ``factory`` at universe
    size ``m`` against ``adversary_factory``'s adversaries under ``plan``.

    ``seed``, ``trials`` (cap) and ``confidence`` default to the
    plan's own fields; call sites that sweep seeds or budgets pass
    them explicitly without rebuilding plans.

    Each checkpoint of the plan's schedule plays the trials up to it
    with one :func:`count_range` call and updates the Wilson interval.
    Fixed mode has one checkpoint, the cap. Adaptive mode stops at the
    first checkpoint whose half-width is ≤ ``plan.target_halfwidth``
    (or at the cap). Either way the result is bit-identical for any
    ``workers`` — see :mod:`repro.simulation.plan` for why.

    Statistical caveat: the returned CI is the ordinary Wilson
    interval at the stopped ``n`` with no sequential correction, so
    under adaptive stopping its realized coverage sits a little below
    the nominal ``confidence`` (optional-stopping bias over the ≤
    ``log_growth(cap/min_trials)`` looks). The experiments' straddle
    checks carry explicit slack for exactly this reason.
    """
    root = plan.seed if seed is None else seed
    level = plan.confidence if confidence is None else confidence
    cap = plan.resolve_cap(trials)
    kind = _engine_kind(plan.engine)
    workers = _pool_size(
        factory, adversary_factory, min(resolve_workers(plan.workers), cap)
    )
    executor = ProcessPoolExecutor(workers) if workers > 1 else None
    collisions = covered = 0
    try:
        for stop in plan.checkpoints(cap):
            collisions += count_range(
                factory,
                m,
                adversary_factory,
                root,
                covered,
                stop,
                kind=kind,
                executor=executor,
                workers=workers,
            )
            covered = stop
            low, high = wilson_interval(collisions, covered, level)
            if (
                plan.target_halfwidth is not None
                and (high - low) / 2.0 <= plan.target_halfwidth
            ):
                break
    finally:
        if executor is not None:
            executor.shutdown()
    return Estimate(
        probability=collisions / covered,
        trials=covered,
        successes=collisions,
        ci_low=low,
        ci_high=high,
        confidence=level,
    )


__all__ = ["run_plan"]
