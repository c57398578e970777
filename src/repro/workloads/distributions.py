"""Key-popularity distributions for KV workloads.

Implements the pickers YCSB uses: uniform, Zipfian — exact inverse-CDF
for small key spaces and a constant-time zeta-approximation sampler
for production-scale ones — scrambled Zipfian (decorrelates popularity
from key order), and latest-biased.

The two Zipfian implementations trade off differently:

* :class:`ZipfianPicker` precomputes the exact CDF: O(n) memory and
  startup, exact probabilities. It is the test oracle and the right
  choice up to ~10^5 keys.
* :class:`ZipfianApproxPicker` is YCSB's sampler (after Gray et al.,
  "Quickly Generating Billion-Record Synthetic Databases", SIGMOD '94):
  O(1) memory, O(1) startup via an Euler–Maclaurin zeta tail, O(1) per
  pick. Its per-rank probabilities differ from exact Zipf by a small
  approximation error concentrated in the mid ranks; the head (which
  drives cache behaviour) matches closely. Use it for ``n`` beyond the
  exact picker's reach — :func:`make_zipfian` chooses automatically.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from typing import List

from repro.errors import ConfigurationError

#: Largest key space for which :func:`make_zipfian` builds the exact
#: CDF; beyond it the constant-time approximation takes over.
EXACT_CDF_MAX = 100_000

#: Exact head terms used before the Euler–Maclaurin tail in
#: :func:`_zeta`; the tail error at this cutoff is far below float ulp
#: noise for every theta in (0, 1).
_ZETA_EXACT_CUTOFF = 10_000


def _zeta(n: int, theta: float) -> float:
    """``sum_{i=1..n} 1/i**theta`` — exact head + Euler–Maclaurin tail.

    Exact for ``n <= _ZETA_EXACT_CUTOFF``; above it the remaining terms
    are approximated by the integral plus the first two Euler–Maclaurin
    corrections, so the whole computation is O(cutoff) regardless of
    ``n`` (this is what lets a 10^7-key sampler initialize in
    milliseconds).
    """
    head_terms = min(n, _ZETA_EXACT_CUTOFF)
    total = 0.0
    for i in range(1, head_terms + 1):
        total += 1.0 / (i**theta)
    if n <= _ZETA_EXACT_CUTOFF:
        return total
    k = float(head_terms)
    # sum_{i=k+1..n} i^-theta  ~=  integral + trapezoid + derivative terms
    a, b = k + 1.0, float(n)
    tail = (b ** (1.0 - theta) - a ** (1.0 - theta)) / (1.0 - theta)
    tail += 0.5 * (a**-theta + b**-theta)
    tail -= (theta / 12.0) * (b ** (-theta - 1.0) - a ** (-theta - 1.0))
    return total + tail


class KeyPicker:
    """Interface: pick an integer key index in ``[0, n)``."""

    def pick(self, rng: random.Random) -> int:
        """Draw one key index in ``[0, n)`` using ``rng``."""
        raise NotImplementedError


class ZipfianPicker(KeyPicker):
    """Zipf(θ): rank ``r`` has weight ``1/r^θ``. Exact inverse-CDF.

    O(n) startup and memory — the oracle implementation. For key
    spaces beyond ~10^5 use :class:`ZipfianApproxPicker` (or let
    :func:`make_zipfian` decide).
    """

    def __init__(self, n: int, theta: float = 0.99):
        if n < 1:
            raise ConfigurationError("n must be >= 1")
        if theta <= 0:
            raise ConfigurationError("theta must be > 0")
        self.n = n
        self.theta = theta
        cdf: List[float] = []
        cumulative = 0.0
        for rank in range(1, n + 1):
            cumulative += 1.0 / (rank**theta)
            cdf.append(cumulative)
        total = cdf[-1]
        self._cdf = [c / total for c in cdf]

    def pick(self, rng: random.Random) -> int:
        """Exact Zipfian draw via binary search on the inverse CDF."""
        return bisect.bisect_left(self._cdf, rng.random())


class ZipfianApproxPicker(KeyPicker):
    """Zipf(θ) via YCSB's constant-time rejection-free approximation.

    One uniform draw per pick, O(1) state: the Gray et al. sampler
    used by YCSB's ``ZipfianGenerator``, with the zeta normalizer
    computed through :func:`_zeta` so initialization stays O(1) in
    ``n``. Requires ``theta < 1`` (the closed form divides by
    ``1 - theta``); YCSB's default 0.99 is fine.
    """

    def __init__(self, n: int, theta: float = 0.99):
        if n < 1:
            raise ConfigurationError("n must be >= 1")
        if not 0.0 < theta < 1.0:
            raise ConfigurationError(
                "ZipfianApproxPicker needs 0 < theta < 1 "
                f"(got {theta}); use ZipfianPicker for other thetas"
            )
        self.n = n
        self.theta = theta
        self._zetan = _zeta(n, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._half_pow_theta = 0.5**theta
        zeta2 = 1.0 + self._half_pow_theta
        if n > 2:
            self._eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (
                1.0 - zeta2 / self._zetan
            )
        else:
            # n <= 2: zetan <= zeta2 makes eta's formula 0/0, but every
            # draw resolves in the first two branches of pick() (uz is
            # always < 1 + 0.5^theta), so eta is never consulted.
            self._eta = 0.0

    def pick(self, rng: random.Random) -> int:
        """Constant-time approximate Zipfian draw (one uniform sample)."""
        u = rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + self._half_pow_theta:
            return min(1, self.n - 1)
        index = int(self.n * (self._eta * u - self._eta + 1.0) ** self._alpha)
        return min(index, self.n - 1)


def make_zipfian(
    n: int, theta: float = 0.99, exact_max: int = EXACT_CDF_MAX
) -> KeyPicker:
    """Exact Zipfian for small ``n``, constant-time approximation beyond.

    The split point defaults to :data:`EXACT_CDF_MAX`: below it the
    exact CDF costs little and is, well, exact; above it the
    approximation initializes in O(1) time/memory. Thetas outside the
    approximation's ``(0, 1)`` domain always use the exact picker
    (paying its O(n) startup), so every theta the exact picker accepts
    keeps working at any ``n``.
    """
    if n <= exact_max or not 0.0 < theta < 1.0:
        return ZipfianPicker(n, theta)
    return ZipfianApproxPicker(n, theta)


class ScrambledZipfianPicker(KeyPicker):
    """Zipfian popularity hashed onto the key space (YCSB's default).

    Without scrambling, hot keys are the lexicographically smallest,
    which clusters them into few SSTs and understates cache pressure.
    Uses :func:`make_zipfian`, so it scales to 10^7+ keys.
    """

    def __init__(self, n: int, theta: float = 0.99):
        self._zipf = make_zipfian(n, theta)
        self.n = n

    def pick(self, rng: random.Random) -> int:
        """Zipfian popularity rank, hashed onto the key space."""
        rank = self._zipf.pick(rng)
        digest = hashlib.blake2b(
            rank.to_bytes(8, "little"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "little") % self.n


class LatestPicker(KeyPicker):
    """Skewed toward recently inserted keys (YCSB workload D).

    The caller advances the window with :meth:`record_insert` as it
    inserts; picks are Zipfian over recency rank (rank 1 = the newest
    key) within a capped trailing window.
    """

    #: Recency window cap: only the newest this-many keys draw reads.
    WINDOW_CAP = 1024

    def __init__(self, initial_count: int, theta: float = 0.99):
        if initial_count < 1:
            raise ConfigurationError("initial_count must be >= 1")
        if theta <= 0:
            raise ConfigurationError("theta must be > 0")
        self.insert_count = initial_count
        self.theta = theta
        # Unnormalized Zipf CDF over recency ranks, grown lazily and
        # shared by every window size: prefix [0:window] is the CDF
        # for that window. The window is capped at WINDOW_CAP, so the
        # build cost is O(WINDOW_CAP) once — after that a pick is one
        # uniform draw plus an O(log window) bisect.
        self._cdf: List[float] = []

    def record_insert(self, count: int = 1) -> None:
        """Advance the recency window by ``count`` new insertions."""
        if count < 0:
            raise ConfigurationError("count must be >= 0")
        self.insert_count += count

    def _cdf_for(self, window: int) -> List[float]:
        while len(self._cdf) < window:
            rank = len(self._cdf) + 1
            previous = self._cdf[-1] if self._cdf else 0.0
            self._cdf.append(previous + 1.0 / (rank**self.theta))
        return self._cdf

    def pick(self, rng: random.Random) -> int:
        """Recency-skewed draw over the keys inserted so far."""
        window = min(self.insert_count, self.WINDOW_CAP)
        cdf = self._cdf_for(window)
        target = rng.random() * cdf[window - 1]
        rank = bisect.bisect_left(cdf, target, 0, window) + 1
        return self.insert_count - rank
