"""The estimation policy: :class:`SimulationPlan`.

Every Monte-Carlo estimate is described by one frozen
:class:`SimulationPlan` — which engine, how many worker processes,
and to what precision. :func:`repro.simulation.engines.run_plan`
applies it to a generator factory, a universe size and an adversary
factory, one checkpoint of :meth:`SimulationPlan.checkpoints` at a
time.

There are exactly two engines (:data:`ENGINES`):

``python``
    The reference RNG universe: the ``generate_batch`` fast path for
    oblivious sequential profiles, the per-trial game loop otherwise.
``numpy``
    The vectorized kernels of :mod:`repro.simulation.vectorized`, a
    *separate RNG universe*; workloads the kernels cannot express run
    the python path.

Determinism contract
--------------------

For a fixed plan and root seed the returned estimate is **bit
identical** regardless of ``workers=`` count, because

1. every trial's outcome is a pure function of ``(root seed, trial
   index)`` on both engines, so collision counts over an index range
   are partition-invariant; and
2. adaptive stopping is evaluated only at *checkpoints* — a trial-count
   schedule derived purely from the plan's precision fields
   (``min_trials`` growing geometrically up to the cap), never from
   how trials were scheduled onto workers.

Switching between ``python`` and ``numpy`` changes the RNG universe
(documented in :mod:`repro.simulation.vectorized`); everything else is
execution detail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import ConfigurationError

#: The estimation engines, in the order the CLI lists them.
ENGINES = ("python", "numpy")


@dataclass(frozen=True)
class SimulationPlan:
    """A frozen estimation policy: execution backend + precision target.

    Execution fields (never change the estimate within one engine):

    * ``engine`` — ``python`` or ``numpy`` (see :data:`ENGINES`); the
      two are separate RNG universes.
    * ``workers`` — process count (``None``/``1`` serial, ``0`` one
      per CPU).

    Sampling fields (define the estimate):

    * ``seed`` — root seed when the call site does not supply one;
      every trial derives from ``(seed, trial index)``.
    * ``confidence`` — Wilson interval confidence level.
    * ``target_halfwidth`` — adaptive mode: stop at the first
      checkpoint where the Wilson half-width is ≤ this (``None`` =
      fixed mode, run the cap exactly). The returned interval is the
      plain Wilson CI at the stopped sample size; sequential looking
      makes its realized coverage slightly below nominal (optional
      stopping over the handful of geometric checkpoints) — consumers
      needing strict coverage should add slack or use fixed mode.
    * ``min_trials`` / ``growth`` — the checkpoint schedule:
      ``min_trials``, then geometric growth by ``growth``, capped.
    * ``max_trials`` — the trial cap. Call sites may pass their own
      ``trials=``; the effective cap is the smaller of the two.
    """

    engine: str = "python"
    workers: Optional[int] = None
    seed: int = 0
    confidence: float = 0.95
    target_halfwidth: Optional[float] = None
    min_trials: int = 128
    growth: float = 2.0
    max_trials: Optional[int] = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{', '.join(ENGINES)}"
            )
        if self.workers is not None and self.workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0, got {self.workers}"
            )
        if not 0 < self.confidence < 1:
            raise ConfigurationError(
                f"confidence must be in (0,1), got {self.confidence}"
            )
        if self.target_halfwidth is not None and not (
            0 < self.target_halfwidth < 1
        ):
            raise ConfigurationError(
                "target_halfwidth must be in (0,1), got "
                f"{self.target_halfwidth}"
            )
        if self.min_trials < 1:
            raise ConfigurationError(
                f"min_trials must be >= 1, got {self.min_trials}"
            )
        if not self.growth > 1:
            raise ConfigurationError(
                f"growth must be > 1, got {self.growth}"
            )
        if self.max_trials is not None and self.max_trials < 1:
            raise ConfigurationError(
                f"max_trials must be >= 1, got {self.max_trials}"
            )

    @property
    def adaptive(self) -> bool:
        """Whether this plan stops on precision rather than count."""
        return self.target_halfwidth is not None

    def resolve_cap(self, trials: Optional[int] = None) -> int:
        """The effective trial cap for a call site asking for ``trials``.

        The smaller of the call site's ``trials`` and the plan's
        ``max_trials``; at least one of the two must be set.
        """
        if trials is None and self.max_trials is None:
            raise ConfigurationError(
                "no trial cap: pass trials= or set SimulationPlan.max_trials"
            )
        if trials is None:
            cap = self.max_trials
        elif self.max_trials is None:
            cap = trials
        else:
            cap = min(trials, self.max_trials)
        if cap < 1:
            raise ConfigurationError(f"trials must be >= 1, got {cap}")
        return cap

    def checkpoints(self, cap: int) -> Iterator[int]:
        """Cumulative trial counts at which the stop rule is evaluated.

        Fixed mode yields ``cap`` once. Adaptive mode yields
        ``min(min_trials, cap)`` then grows geometrically by
        ``growth`` up to ``cap``. The schedule depends only on plan
        fields and ``cap`` — never on ``workers`` — which is what
        makes adaptive estimates split-invariant.
        """
        if not self.adaptive:
            yield cap
            return
        count = min(self.min_trials, cap)
        while True:
            yield count
            if count >= cap:
                return
            count = min(cap, max(count + 1, math.ceil(count * self.growth)))


__all__ = [
    "ENGINES",
    "SimulationPlan",
]
