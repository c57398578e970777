"""Executing a :class:`~repro.simulation.plan.SimulationPlan`.

:func:`run_plan` drives every estimate. :func:`run_rounds` plays the
trials ``[0, cap)`` in rounds that end on the plan's checkpoints, and
:func:`run_plan` evaluates the stop rule after each round.

The two engines share this loop and differ only in the trial kind
they hand to :func:`~repro.simulation.batch.count_range`: ``python``
(the ``generate_batch`` fast path or the game loop) or ``numpy`` (the
vectorized kernels, a separate RNG universe). On a host without NumPy
the ``numpy`` engine runs the python kind after a once-per-process
warning.

With ``workers`` > 1 one process pool serves every round of a run.
The factories are checked for picklability once, when the pool would
be created; factories that do not pickle run serially after a
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
from typing import Iterator, Optional

from repro.errors import ConfigurationError
from repro.simulation import vectorized
from repro.simulation.batch import count_range, resolve_workers
from repro.simulation.plan import RoundResult, SimulationPlan, TrialTask
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


def _pool_size(task: TrialTask, workers: int) -> int:
    """``workers``, or 1 (with a warning) if the factories do not pickle."""
    if workers <= 1:
        return 1
    try:
        pickle.dumps((task.factory, task.adversary_factory))
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


def run_rounds(
    plan: SimulationPlan, task: TrialTask, seed: int, cap: int
) -> Iterator[RoundResult]:
    """Play trials ``[0, cap)`` in rounds that end on the plan's checkpoints.

    Each round is one :func:`count_range` call. Closing the generator
    early shuts the worker pool down.
    """
    kind = _engine_kind(plan.engine)
    workers = _pool_size(task, min(resolve_workers(plan.workers), cap))
    executor = ProcessPoolExecutor(workers) if workers > 1 else None
    try:
        start = 0
        for stop in plan.checkpoints(cap):
            collisions = count_range(
                task.factory,
                task.m,
                task.adversary_factory,
                seed,
                start,
                stop,
                kind=kind,
                executor=executor,
                workers=workers,
            )
            yield RoundResult(start, stop, collisions)
            start = stop
    finally:
        if executor is not None:
            executor.shutdown()


def run_plan(
    plan: SimulationPlan,
    task: TrialTask,
    seed: Optional[int] = None,
    trials: Optional[int] = None,
    confidence: Optional[float] = None,
) -> Estimate:
    """Execute ``task`` under ``plan`` and return the estimate.

    ``seed``, ``trials`` (cap) and ``confidence`` default to the
    plan's own fields; call sites that sweep seeds or budgets pass
    them explicitly without rebuilding plans.

    Fixed mode runs exactly the cap. Adaptive mode evaluates the
    Wilson interval after every round — each ends on a checkpoint of
    the plan's schedule — and stops at the first one whose half-width
    is ≤ ``plan.target_halfwidth`` (or at the cap). Either way the
    result is bit-identical for any ``workers`` — see
    :mod:`repro.simulation.plan` for why.

    Statistical caveat: the returned CI is the ordinary Wilson
    interval at the stopped ``n`` with no sequential correction, so
    under adaptive stopping its realized coverage sits a little below
    the nominal ``confidence`` (optional-stopping bias over the ≤
    ``log_growth(cap/min_trials)`` looks). The experiments' straddle
    checks carry explicit slack for exactly this reason.

    Rounds must tile ``[0, cap)`` contiguously in index order with
    sane collision counts; a violation raises
    :class:`ConfigurationError` instead of corrupting the estimate.
    """
    root = plan.seed if seed is None else seed
    level = plan.confidence if confidence is None else confidence
    cap = plan.resolve_cap(trials)
    collisions = covered = 0
    rounds = run_rounds(plan, task, root, cap)
    try:
        for round_result in rounds:
            if (
                round_result.start != covered
                or round_result.stop <= round_result.start
                or round_result.stop > cap
                or not 0 <= round_result.collisions <= round_result.trials
            ):
                raise ConfigurationError(
                    f"engine {plan.engine!r} yielded an invalid round "
                    f"{round_result!r} at covered={covered}, cap={cap}: "
                    "rounds must tile [0, cap) contiguously with "
                    "0 <= collisions <= trials"
                )
            covered = round_result.stop
            collisions += round_result.collisions
            low, high = wilson_interval(collisions, covered, level)
            if (
                plan.target_halfwidth is not None
                and (high - low) / 2.0 <= plan.target_halfwidth
            ):
                break
        else:
            if covered != cap:
                raise ConfigurationError(
                    f"engine {plan.engine!r} covered only [0, {covered}) "
                    f"of the requested [0, {cap}); rounds must span the "
                    "whole range"
                )
    finally:
        rounds.close()
    return Estimate(
        probability=collisions / covered,
        trials=covered,
        successes=collisions,
        ci_low=low,
        ci_high=high,
        confidence=level,
    )


__all__ = ["run_plan", "run_rounds"]
