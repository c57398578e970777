"""Exact collision probabilities ``p_A(D)`` in closed form (§4, §7).

For four of the five algorithms the collision event reduces to a clean
combinatorial event, so ``p_A(D)`` is computable *exactly* with big-int
arithmetic — no simulation error, any ``m`` up to ``2**128`` and beyond:

=============  ==========================================================
``Random``     the ``d_i``-subsets are uniform and independent →
               product of hypergeometric disjointness factors.
``Cluster``    each instance occupies one arc of its demand's length at
               a uniform start → circular disjoint-arcs count.
``Bins(k)``    collision ⇔ two instances pick a common bin (a shared bin
               always collides: each emits a *prefix* of the bin, and
               two non-empty prefixes share the first ID) → disjoint
               subsets over ``⌊m/k⌋`` bins of the ``⌈d_i/k⌉`` bin picks.
``Bins*``      instances reaching chunk ``c`` pick one uniform bin among
               the ``2^(C−1−c)`` bins there; chunks are disjoint and
               picks independent → product of per-chunk birthday events.
=============  ==========================================================

``Cluster*`` has no comparably simple form (run placements are mutually
exclusive *within* an instance); use Monte Carlo
(:mod:`repro.simulation.montecarlo`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from repro.adversary.profiles import DemandProfile
from repro.analysis.combinatorics import (
    birthday_no_collision,
    circular_disjoint_arcs_probability,
    disjoint_subsets_probability,
    disjoint_subsets_probability_estimate,
)
from repro.core.bins_star import chunk_count
from repro.core.registry import parse_spec
from repro.errors import ConfigurationError


def validate_profile(m: int, profile: DemandProfile) -> None:
    """Reject ``m < 1`` and a demand no instance of ``[m]`` can serve."""
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m}")
    if profile.max_demand > m:
        raise ConfigurationError(
            f"profile demands an instance produce {profile.max_demand} IDs "
            f"from a universe of {m}"
        )


#: Above this many big-int "work units" (Σ sizes × bits of m) the exact
#: hypergeometric product is replaced by the log-space estimate.
_EXACT_WORK_LIMIT = 4_000_000


def _subset_disjoint_probability_auto(
    universe: int, sizes, method: str
) -> Fraction:
    """Dispatch between the exact and estimated disjointness products."""
    if method not in ("auto", "exact", "estimate"):
        raise ConfigurationError(f"unknown method {method!r}")
    if method == "auto":
        work = sum(sizes) * max(universe.bit_length(), 1)
        method = "exact" if work <= _EXACT_WORK_LIMIT else "estimate"
    if method == "exact":
        return disjoint_subsets_probability(universe, sizes)
    return Fraction(
        disjoint_subsets_probability_estimate(universe, sizes)
    )


def random_collision_probability(
    m: int, profile: DemandProfile, method: str = "auto"
) -> Fraction:
    """``p_Random(D)``: 1 − Π C(m−Σ_{j<i} d_j, d_i)/C(m, d_i).

    Exact by default; for demands large enough that the binomials
    become multi-megabit integers (``method="auto"``), a log-space
    estimate accurate to ~float precision is used instead (pass
    ``method="exact"`` to force the big-int path).
    """
    validate_profile(m, profile)
    return 1 - _subset_disjoint_probability_auto(
        m, profile.demands, method
    )


def cluster_collision_probability(m: int, profile: DemandProfile) -> Fraction:
    """Exact ``p_Cluster(D)`` via the disjoint-arcs placement count."""
    validate_profile(m, profile)
    return 1 - circular_disjoint_arcs_probability(m, profile.demands)


def cluster_pairwise_collision(m: int, d_i: int, d_j: int) -> Fraction:
    """Theorem 1's pairwise event: ``Pr[C_ij] = (d_i + d_j − 1)/m``."""
    if d_i < 1 or d_j < 1:
        raise ConfigurationError("pairwise demands must be >= 1")
    return Fraction(min(d_i + d_j - 1, m), m)


def bins_collision_probability(
    m: int, k: int, profile: DemandProfile, method: str = "auto"
) -> Fraction:
    """``p_Bins(k)(D)`` while no instance runs out of bins.

    Exact by default (see :func:`random_collision_probability` for the
    ``method`` semantics). Raises if some ``d_i > ⌊m/k⌋·k`` (the regime
    where the paper simply reports Θ(1): the instance is forced into
    the deterministic leftover tail and two such instances collide with
    certainty).
    """
    validate_profile(m, profile)
    if not 1 <= k <= m:
        raise ConfigurationError(f"k must be in [1, m], got {k}")
    num_bins = m // k
    capacity = num_bins * k
    overflowing = sum(1 for d in profile.demands if d > capacity)
    if overflowing:
        if overflowing >= 2:
            return Fraction(1)
        raise ConfigurationError(
            f"a demand exceeds the binned capacity {capacity}; "
            "exact formula does not cover a single overflowing instance"
        )
    bin_counts = [-(-d // k) for d in profile.demands]  # ceil division
    return 1 - _subset_disjoint_probability_auto(
        num_bins, bin_counts, method
    )


def bins_star_collision_probability(
    m: int, profile: DemandProfile, num_chunks: Optional[int] = None
) -> Fraction:
    """Exact ``p_Bins*(D)`` as a product of per-chunk birthday events.

    An instance with demand ``d`` opens a bin in 0-based chunk ``c`` iff
    ``d ≥ 2^c`` (chunks 0..c−1 hold ``2^c − 1`` IDs). Within chunk ``c``
    the ``k_c`` such instances each pick one of ``2^(C−1−c)`` bins
    uniformly and independently; sharing a bin ⇔ collision. Chunks are
    disjoint ID ranges and picks are independent across chunks, so the
    no-collision events multiply. Demands beyond the ``2^C − 1``
    schedule are rejected (the paper makes no claim there).
    """
    validate_profile(m, profile)
    if num_chunks is None:
        num_chunks = chunk_count(m)
    elif num_chunks < 1 or num_chunks * (1 << (num_chunks - 1)) > m:
        raise ConfigurationError(
            f"num_chunks={num_chunks} does not fit m={m}"
        )
    capacity = (1 << num_chunks) - 1
    if profile.max_demand > capacity:
        raise ConfigurationError(
            f"demand {profile.max_demand} exceeds the Bins* schedule "
            f"capacity 2^C−1 = {capacity} for m={m}"
        )
    no_collision = Fraction(1)
    for chunk in range(num_chunks):
        reaching = sum(1 for d in profile.demands if d >= (1 << chunk))
        if reaching <= 1:
            break  # chunks only get emptier as the threshold doubles
        bins_here = 1 << (num_chunks - 1 - chunk)
        no_collision *= birthday_no_collision(bins_here, reaching)
        if no_collision == 0:
            break
    return 1 - no_collision


def exact_collision_probability(
    spec: str, m: int, profile: DemandProfile
) -> Fraction:
    """Dispatch on an algorithm spec (``"random"``, ``"bins:8"``, ...).

    ``cluster_star`` and ``skew`` have no closed form here and raise.
    """
    name, args = parse_spec(spec)
    if name == "random":
        return random_collision_probability(m, profile)
    if name == "cluster":
        return cluster_collision_probability(m, profile)
    if name == "bins":
        return bins_collision_probability(m, args[0], profile)
    if name == "bins_star":
        return bins_star_collision_probability(m, profile)
    raise ConfigurationError(
        f"no exact closed form for {spec!r}; use Monte Carlo "
        "(repro.simulation.montecarlo)"
    )


def skew_aware_pair_collision(m: int, i: int, j: int) -> Fraction:
    """Exact collision probability of ``SkewAware(i, j)`` on profile (i, j).

    Both instances run ``Bins(i)`` over the reduced space of
    ``m − (j − i)`` IDs for their first ``i`` requests; only the heavier
    instance touches the deterministic tail. Collision ⇔ the two
    ``Bins(i)`` prefixes share a bin; each opens exactly one bin, so this
    is a two-ball birthday over ``⌊(m−j+i)/i⌋`` bins (Lemma 24's
    ``Θ(i/m)``, here exactly).
    """
    if not 1 <= i <= j <= m:
        raise ConfigurationError(f"need 1 <= i <= j <= m, got {i}, {j}, {m}")
    reduced = m - (j - i)
    num_bins = reduced // i
    if num_bins < 1:
        return Fraction(1)
    return Fraction(1, num_bins)
