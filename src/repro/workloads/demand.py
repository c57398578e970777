"""Demand models: static experiment profiles and arrival processes.

Two families of demand live here:

* **Static demand profiles** — profile families the paper's
  experiments sweep over: maximally skewed, power-of-two grids (the Φ
  support), and random compositions — all seeded and reproducible. These describe *how many IDs each instance
  will mint*, frozen for a whole run.
* **Arrival processes** (:class:`ArrivalProcess`) — *time-varying*
  offered load for the serving stack: the instantaneous demand rate at
  each logical op tick of a
  :class:`~repro.workloads.driver.WorkloadDriver` run. The catalog is
  ``static`` (constant), ``diurnal`` (sinusoid over a fixed period),
  ``flash`` (a flash-crowd step inside a tick window), and ``poisson``
  (Poisson-arriving bursts drawn from a seeded SplitMix64 stream).
  Every process is a **pure function of** ``(seed, tick)`` — no
  internal state, no wall clock — so the rate schedule, and therefore
  every autoscaling decision derived from it
  (:mod:`repro.distributed.autoscaler`), is bit-reproducible at any
  ``workers=`` split.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.adversary.profiles import DemandProfile, sample_profile_d1
from repro.errors import ProfileError
from repro.simulation.seeds import derive_seed

#: Seed-path label for arrival-process draws (fixed constant — part of
#: the reproducibility contract, never change it).
_ARRIVAL_LABEL = 0xA221

#: The arrival-process catalog (the ``--arrival`` CLI choices).
ARRIVAL_KINDS = ("static", "diurnal", "flash", "poisson")


def _uniform01(seed: int, *path: int) -> float:
    """A uniform draw in [0, 1) that is a pure function of its inputs.

    Uses the SplitMix64 derivation chain, so adjacent ticks are
    statistically independent and the draw never touches shared RNG
    state.
    """
    return derive_seed(seed, _ARRIVAL_LABEL, *path) / float(1 << 64)


@dataclass(frozen=True)
class ArrivalProcess:
    """A deterministic time-varying demand signal for serving runs.

    :meth:`rate` maps a logical op tick (the driver's 1-based op
    counter — the same clock :class:`~repro.workloads.driver.ChaosEvent`
    and ``rebalance_every`` run on) to the instantaneous offered load,
    in ops per logical second. The process is stateless: the rate at
    tick ``t`` is a pure function of ``(seed, t)`` and the frozen
    parameters, so any subsequence of ticks can be evaluated in any
    order — on any worker — and agree bit-for-bit.

    Parameters
    ----------
    kind:
        One of :data:`ARRIVAL_KINDS`:

        * ``static`` — ``base_rate`` forever.
        * ``diurnal`` — a sinusoid: ``base_rate * (1 + amplitude *
          sin(2π * tick / period))``; one full day per ``period``
          ticks.
        * ``flash`` — ``base_rate``, except a flash crowd multiplies
          demand by ``peak`` for ticks in ``[flash_at, flash_at +
          flash_ticks)``.
        * ``poisson`` — bursts *arrive* as a Poisson process: each
          tick opens a burst with probability ``burst_prob`` (drawn
          from the seeded SplitMix64 stream, independently per tick),
          and an open burst multiplies demand by ``peak`` for
          ``burst_ticks`` ticks. Overlapping bursts do not stack.
    base_rate:
        Mean offered load, in ops per logical second.
    period / amplitude:
        Diurnal shape. ``amplitude`` must stay in [0, 1) so the rate
        stays positive.
    flash_at / flash_ticks / peak:
        Flash-crowd window and its demand multiplier (``peak`` also
        scales poisson bursts).
    burst_prob / burst_ticks:
        Poisson burst arrival probability per tick, and burst length.
    """

    kind: str = "static"
    base_rate: float = 2000.0
    period: int = 2000
    amplitude: float = 0.6
    flash_at: int = 1000
    flash_ticks: int = 2000
    peak: float = 4.0
    burst_prob: float = 0.002
    burst_ticks: int = 200

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ProfileError(
                f"unknown arrival kind {self.kind!r}; "
                f"use one of {', '.join(ARRIVAL_KINDS)}"
            )
        if self.base_rate <= 0:
            raise ProfileError("base_rate must be > 0")
        if self.period < 2:
            raise ProfileError("period must be >= 2 ticks")
        if not 0.0 <= self.amplitude < 1.0:
            raise ProfileError("amplitude must be in [0, 1)")
        if self.flash_at < 1 or self.flash_ticks < 1:
            raise ProfileError("flash window must start at tick >= 1")
        if self.peak < 1.0:
            raise ProfileError("peak must be >= 1.0")
        if not 0.0 <= self.burst_prob <= 1.0:
            raise ProfileError("burst_prob must be in [0, 1]")
        if self.burst_ticks < 1:
            raise ProfileError("burst_ticks must be >= 1")

    def _burst_open(self, seed: int, tick: int) -> bool:
        """Is a poisson burst covering ``tick``?

        A burst opened at any tick in ``(tick - burst_ticks, tick]``
        covers it; each opening is an independent per-tick Bernoulli
        draw, so the answer is a pure function of ``(seed, tick)`` at
        the cost of an O(burst_ticks) window scan.
        """
        start = max(1, tick - self.burst_ticks + 1)
        for opened in range(start, tick + 1):
            if _uniform01(seed, opened) < self.burst_prob:
                return True
        return False

    def rate(self, seed: int, tick: int) -> float:
        """Offered load at ``tick``, in ops per logical second.

        Pure in ``(seed, tick)``: same arguments, same float, on any
        worker, in any evaluation order.
        """
        if tick < 1:
            raise ProfileError("ticks are 1-based (the driver's op counter)")
        if self.kind == "static":
            return self.base_rate
        if self.kind == "diurnal":
            phase = 2.0 * math.pi * (tick % self.period) / self.period
            return self.base_rate * (1.0 + self.amplitude * math.sin(phase))
        if self.kind == "flash":
            if self.flash_at <= tick < self.flash_at + self.flash_ticks:
                return self.base_rate * self.peak
            return self.base_rate
        # poisson
        if self._burst_open(seed, tick):
            return self.base_rate * self.peak
        return self.base_rate


def make_arrival(kind: str, base_rate: float, **knobs) -> ArrivalProcess:
    """Build an :class:`ArrivalProcess` from CLI-shaped arguments.

    ``knobs`` may override any shape parameter; unknown names raise
    :class:`~repro.errors.ProfileError` (dataclass TypeError text makes
    a poor CLI message).
    """
    valid = {
        "period", "amplitude", "flash_at", "flash_ticks", "peak",
        "burst_prob", "burst_ticks",
    }
    unknown = sorted(set(knobs) - valid)
    if unknown:
        raise ProfileError(
            f"unknown arrival knob(s): {', '.join(unknown)}"
        )
    return ArrivalProcess(kind=kind, base_rate=base_rate, **knobs)


def skewed_pair_grid(
    max_exponent: int,
) -> Iterator[Tuple[int, int, DemandProfile]]:
    """All two-instance profiles ``(2^i, 2^j)`` with ``i ≤ j ≤ max_exponent``.

    Yields ``(i, j, profile)`` — the grid of Theorem 10's Φ support and
    of the Bins* competitive experiment.
    """
    if max_exponent < 0:
        raise ProfileError("max_exponent must be >= 0")
    for i in range(max_exponent + 1):
        for j in range(i, max_exponent + 1):
            yield i, j, DemandProfile.of(1 << i, 1 << j)


def random_compositions(
    n: int, d: int, count: int, seed: int
) -> Iterator[DemandProfile]:
    """``count`` uniform samples from ``D1(n, d)``."""
    rng = random.Random(seed)
    for _ in range(count):
        yield sample_profile_d1(n, d, rng)


def max_skew_profile(n: int, d: int) -> DemandProfile:
    """``(d−n+1, 1, ..., 1)`` — all excess demand on one instance.

    This is the §3.4 example where ``Cluster`` is a factor Θ(d) from
    optimal, motivating ``Bins*``.
    """
    if not 2 <= n <= d:
        raise ProfileError(f"need 2 <= n <= d, got n={n}, d={d}")
    return DemandProfile((d - n + 1,) + (1,) * (n - 1))
