"""Binomial-proportion statistics shared by every estimation path.

:func:`~repro.simulation.engines.run_plan` builds each :class:`Estimate`
with :func:`wilson_interval`, and stops an adaptive estimate once that
interval is narrow enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Estimate:
    """A binomial proportion estimate with a confidence interval."""

    probability: float
    trials: int
    successes: int
    ci_low: float
    ci_high: float
    confidence: float

    @property
    def halfwidth(self) -> float:
        """Half the Wilson interval — the adaptive stopping criterion."""
        return (self.ci_high - self.ci_low) / 2.0

    def __str__(self) -> str:
        return (
            f"{self.probability:.4g} "
            f"[{self.ci_low:.4g}, {self.ci_high:.4g}] "
            f"({self.successes}/{self.trials})"
        )


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> tuple:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if not 0 < confidence < 1:
        raise ConfigurationError(
            f"confidence must be in (0,1), got {confidence}"
        )
    # Normal quantile via the Acklam-style inverse error approximation:
    # for the common confidences this is plenty accurate.
    z = _normal_quantile(0.5 + confidence / 2.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(
            phat * (1 - phat) / trials + z * z / (4 * trials * trials)
        )
        / denom
    )
    low = max(0.0, center - half)
    high = min(1.0, center + half)
    # Exact boundary cases: float dust must not push the interval off
    # the observed proportion.
    if successes == 0:
        low = 0.0
    if successes == trials:
        high = 1.0
    return low, high


def _normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (Beasley-Springer-Moro)."""
    if not 0 < p < 1:
        raise ConfigurationError("quantile argument must be in (0,1)")
    a = [
        -3.969683028665376e01, 2.209460984245205e02,
        -2.759285104469687e02, 1.383577518672690e02,
        -3.066479806614716e01, 2.506628277459239e00,
    ]
    b = [
        -5.447609879822406e01, 1.615858368580409e02,
        -1.556989798598866e02, 6.680131188771972e01,
        -1.328068155288572e01,
    ]
    c = [
        -7.784894002430293e-03, -3.223964580411365e-01,
        -2.400758277161838e00, -2.549732539343734e00,
        4.374664141464968e00, 2.938163982698783e00,
    ]
    d = [
        7.784695709041462e-03, 3.224671290700398e-01,
        2.445134137142996e00, 3.754408661907416e00,
    ]
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p <= p_high:
        q = p - 0.5
        r = q * q
        return (
            (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5])
            * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)
        )
    q = math.sqrt(-2 * math.log(1 - p))
    return -(
        ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
    ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
