"""NumPy-vectorized Monte-Carlo trial kernels — the ``engine="numpy"`` path.

:mod:`repro.simulation.batch` parallelizes trials *across* processes;
this module parallelizes *within* one: a whole block of oblivious
trials is simulated as a handful of array operations instead of
thousands of Python-level ``random.Random`` calls and set updates. For
each algorithm family the per-trial collision event reduces to a
closed-form array computation:

=============  =========================================================
``Random``     each instance is a uniform ``d_i``-subset of ``[m]``
               (sampled by per-row rejection until duplicate-free);
               collision ⇔ a duplicate in the sorted concatenation.
``Bins(k)``    same kernel over the reduced universe of ``⌊m/k⌋`` bins
               with ``⌈d_i/k⌉`` picks per instance (a shared bin always
               collides: both prefixes contain its first ID).
``Cluster``    one uniform arc start per instance; collision ⇔ the arcs
               of a trial row are not disjoint. The sorted test: sort
               the row's starts, and separately its ends (start +
               length); the arcs are disjoint iff every sorted end is
               at or before the next sorted start, and the last end at
               or before the first start plus ``m``.
``Bins*``      instances with ``d ≥ 2^c`` pick one uniform bin among
               the ``2^(C−1−c)`` bins of chunk ``c``; collision ⇔ a
               duplicate bin pick inside any chunk row.
``Cluster*``   runs are placed by rejection sampling against the
               instance's own earlier runs (the uniform-over-free-starts
               law of ``CircularIntervalSet.place``), then the sorted
               test runs on the emitted arcs. Placement is speculative:
               one draw gives every run of a row its start, and a row
               whose draws all pass the modulo limit and whose
               instances' runs pass the sorted test is placed. Any other
               row goes back to its first draw and through an exact
               path that, round after round, keeps the runs before the
               first rejected draw and redraws the rest; the rare rows
               whose placement cannot be resolved are replayed by the
               python engine's trial.
=============  =========================================================

Draws are raw 64-bit SplitMix64 outputs. One reduced into ``[0, bound)``
is masked with ``bound − 1`` when ``bound`` is a power of two (every
universe the experiments use), and otherwise taken modulo ``bound``
after the biased top of the range is redrawn. Reduced values, and the
sorts and comparisons built on them, are uint32 wherever every value
fits: ``bound ≤ 2^32`` for Random, Bins(k) and Bins* picks, and
``2m ≤ 2^32`` for the Cluster and Cluster* arcs test, whose ends reach
``2m − 1``. Otherwise they stay uint64. Neither choice changes a value.

Randomness is *counter-based* SplitMix64: trial ``t`` draws from the
stream keyed by ``derive_seed(root, t, NUMPY_SEED_LABEL)``, so every
trial's outcome is a pure function of ``(root seed, trial index)`` and
estimates are bit-identical at any ``workers=`` count or internal chunk
size. The label makes the NumPy engine a *separate RNG universe* from
the python engine: both are exact samplers of the same per-trial
collision distribution (equivalence is asserted statistically against
:mod:`repro.analysis.exact` in the test suite), but their estimates
differ by ordinary Monte-Carlo noise.

The module imports cleanly without NumPy installed —
:func:`numpy_available` reports the capability and every planner entry
point degrades to ``None`` (callers then use the python engine).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

try:  # soft dependency: everything degrades to the python engine
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free hosts
    _np = None

from repro.adversary.profiles import DemandProfile
from repro.core.bins_star import chunk_count
from repro.core.registry import parse_spec
from repro.errors import ConfigurationError, GameError
from repro.simulation.seeds import _MASK64, _splitmix64

#: Seed-path label appended to ``(root seed, trial index)`` when keying
#: a trial's NumPy stream. Distinct from every label the python engine
#: uses, which is what makes the two engines separate RNG universes.
NUMPY_SEED_LABEL = 0x4E505633  # "NPV3"

#: Universes above this bound stay on the python engine: the kernels
#: add lengths and ``m`` to starts, and subtract starts in int64, which
#: needs ``2m < 2**63`` of headroom. Below it, reduced draws are uint32
#: when their bound is at most ``2**32`` and arc starts and ends are
#: uint32 when ``2m`` is (see :func:`_dtype_below`); the rest is uint64.
_MAX_UNIVERSE = 1 << 61

#: Target array elements per internal trial chunk (bounds peak memory;
#: invisible in the results because trials are keyed individually).
#: A chunk's raw draws then take 8 MB, narrowed ones 4 MB. Smaller
#: targets split the 400-trial Cluster* estimate into chunks that each
#: pay the exact path's per-round overhead, and run it slower.
_CHUNK_ELEMENTS = 1 << 20

#: Pair tests per block of rows in Cluster*'s exact path: the pair
#: arrays then stay in cache, which is faster than one pass per round.
_PAIR_BLOCK = 1 << 16

#: Rejection-round caps. The planner's gates keep per-round acceptance
#: at ≥ exp(-2) (duplicate-free rows) and ≥ 1/2 (unbiased range and
#: run placement), so the caps are unreachable in practice; placement
#: overruns fall back to the game loop, the others are generator bugs.
_MAX_REJECT_ROUNDS = 512
_MAX_PLACEMENT_ROUNDS = 64


def numpy_available() -> bool:
    """Whether the NumPy engine can run at all on this host."""
    return _np is not None


def _modulo_limit(bound: int):
    """First raw value an unbiased draw in ``[0, bound)`` rejects.

    The largest multiple of ``bound`` at most ``2**64``, as a uint64;
    ``None`` when that is ``2**64`` itself (nothing is rejected).
    """
    threshold = ((1 << 64) // bound) * bound
    return _np.uint64(threshold) if threshold < (1 << 64) else None


if _np is not None:
    _GAMMA = _np.uint64(0x9E3779B97F4A7C15)
    _MIX1 = _np.uint64(0xBF58476D1CE4E5B9)
    _MIX2 = _np.uint64(0x94D049BB133111EB)
    _S30 = _np.uint64(30)
    _S27 = _np.uint64(27)
    _S31 = _np.uint64(31)


def _mix64(x):
    """Vectorized SplitMix64 output step (wraps mod 2**64, like uint64).

    Bit-identical to :func:`repro.simulation.seeds._splitmix64` on every
    element. Overwrites ``x``, a uint64 *array* the caller owns (NumPy
    warns on scalar overflow but wraps arrays silently), and returns it.
    """
    x += _GAMMA
    shifted = x >> _S30
    x ^= shifted
    x *= _MIX1
    _np.right_shift(x, _S27, out=shifted)
    x ^= shifted
    x *= _MIX2
    _np.right_shift(x, _S31, out=shifted)
    x ^= shifted
    return x


def _dtype_below(limit: int):
    """uint32 if every value below ``limit`` fits in it, else uint64."""
    return _np.uint32 if limit <= 1 << 32 else _np.uint64


def _reduce(values, bound: int):
    """``values mod bound`` as a new :func:`_dtype_below` ``(bound)`` array.

    A power-of-two ``bound`` is a mask, applied after narrowing (which
    keeps the low bits the mask reads); any other takes a uint64 modulo.
    """
    dtype = _dtype_below(bound)
    if bound & (bound - 1):
        return (values % _np.uint64(bound)).astype(dtype, copy=False)
    reduced = values.astype(dtype)
    reduced &= dtype(bound - 1)
    return reduced


def trial_keys(seed: int, trial_indices) -> "object":
    """Per-trial stream keys: ``derive_seed(seed, t, NUMPY_SEED_LABEL)``.

    Vectorized over ``trial_indices`` (any integer array); the scalar
    path components are pre-mixed with the pure-python SplitMix64 so
    only array arithmetic touches NumPy.
    """
    trials = _np.asarray(trial_indices).astype(_np.uint64)
    state = _np.uint64(_splitmix64(seed & _MASK64))
    state = _mix64(state ^ _mix64(trials))
    mixed_label = _np.uint64(_splitmix64(NUMPY_SEED_LABEL))
    return _mix64(state ^ mixed_label)


class _Streams:
    """One independent counter-based SplitMix64 stream per trial row.

    Row ``r``'s ``j``-th draw is ``mix(key_r + (j+1)·γ)`` — exactly the
    SplitMix64 generator seeded with ``key_r`` — so the values a trial
    sees depend only on its key and how many draws *it* has consumed,
    never on which other trials share the block.
    """

    def __init__(self, keys):
        self.keys = keys
        self.pos = _np.zeros(keys.shape, dtype=_np.uint64)

    def peek(self, offsets, rows=None):
        """Raw values ``offsets`` draws past each row's position, unconsumed.

        ``offsets`` is uint64 and broadcasts against (rows, 1). The
        row's base ``key + pos·γ`` and each column's step
        ``(offset + 1)·γ`` meet in one full-size sum, which equals
        ``key + (pos + offset + 1)·γ`` mod 2**64.
        """
        keys = self.keys if rows is None else self.keys[rows]
        pos = self.pos if rows is None else self.pos[rows]
        return _mix64(
            (keys + pos * _GAMMA)[:, None] + (offsets + _np.uint64(1)) * _GAMMA
        )

    def draw(self, cols: int, rows=None):
        """Next ``cols`` raw 64-bit values for every row (or ``rows``)."""
        values = self.peek(_np.arange(cols, dtype=_np.uint64), rows)
        if rows is None:
            self.pos += _np.uint64(cols)
        else:
            self.pos[rows] += _np.uint64(cols)
        return values

    def uniform(self, bound: int, cols: int, rows=None):
        """Exactly uniform draws in ``[0, bound)`` — (rows, cols) array.

        Values at or above :func:`_modulo_limit` are redrawn (per
        element), so the modulo at the end carries no bias; acceptance
        is ≥ 1/2 per draw. The result is ``_dtype_below(bound)``.
        """
        values = self.draw(cols, rows)
        limit = _modulo_limit(bound)
        if limit is not None:
            for _ in range(_MAX_REJECT_ROUNDS):
                bad = values >= limit
                bad_rows = _np.nonzero(bad.any(axis=1))[0]
                if bad_rows.size == 0:
                    break
                absolute = bad_rows if rows is None else rows[bad_rows]
                fresh = self.draw(cols, absolute)
                values[bad_rows] = _np.where(
                    bad[bad_rows], fresh, values[bad_rows]
                )
            else:  # pragma: no cover - P(reach) <= 2**-512 per element
                raise GameError("uniform rejection sampling did not converge")
        return _reduce(values, bound)

    def distinct_uniform(self, bound: int, cols: int):
        """Uniformly random *duplicate-free* rows of ``cols`` draws.

        Rows containing a repeated value are redrawn whole, i.e. the
        result is conditioned on all-distinct — exactly the law of
        sequential sampling without replacement (what the python
        generators implement with per-draw rejection against a set).
        Each row comes back sorted.
        """
        values = self.uniform(bound, cols)
        if cols <= 1:
            return values
        for _ in range(_MAX_REJECT_ROUNDS):
            values.sort(axis=1)
            dup = (values[:, 1:] == values[:, :-1]).any(axis=1)
            dup_rows = _np.nonzero(dup)[0]
            if dup_rows.size == 0:
                return values
            values[dup_rows] = self.uniform(bound, cols, dup_rows)
        raise GameError(  # pragma: no cover - gated to acceptance >= e^-2
            "duplicate-free row sampling did not converge; "
            "the planner's density gate should have routed this "
            "profile to the python engine"
        )


# ---------------------------------------------------------------------------
# Per-family collision kernels (one boolean per trial row)
# ---------------------------------------------------------------------------


def _subsets_collisions(universe: int, sizes, streams: "_Streams"):
    """Random / Bins(k): duplicate detection across per-instance subsets."""
    blocks = [streams.distinct_uniform(universe, size) for size in sizes]
    if len(blocks) == 1:  # one sorted duplicate-free block: no collision
        return _np.zeros(len(streams.keys), dtype=bool)
    ids = _np.concatenate(blocks, axis=1)
    ids.sort(axis=1)
    # Within-instance duplicates were rejected away, so any duplicate
    # in the concatenated row is a cross-instance collision.
    return (ids[:, 1:] == ids[:, :-1]).any(axis=1)


def _circular_arcs_disjoint(m: int, starts, lengths):
    """Row-wise: are the circular arcs ``[start, start+length)`` disjoint?

    ``starts`` is (trials, arcs) uint in ``[0, m)``, or (trials,
    groups, arcs) to test each group of a row on its own (a row passes
    iff every group does); ``lengths`` (uint, each in ``[1, m]``)
    broadcasts against it. Sort the starts and, separately, the
    unreduced ends ``start + length``: the arcs are pairwise disjoint
    iff every sorted end is at or before the next sorted start and the
    last end at or before the first start plus ``m``. (Disjoint arcs
    end in the order they start, so the two sorts pair each arc with
    itself; conversely, if the ``i`` smallest ends all come at or
    before the ``(i+1)``-th start, they are the ends of the ``i``
    earliest arcs, which therefore do not reach it.) Ends reach
    ``2m − 1``, so the test runs in ``_dtype_below(2 * m)``, on copies.
    """
    dtype = _dtype_below(2 * m)
    first = starts.astype(dtype)
    ends = first + lengths.astype(dtype)
    first.sort(axis=-1)
    ends.sort(axis=-1)
    rows = len(starts)
    ok = (ends[..., :-1] <= first[..., 1:]).reshape(rows, -1).all(axis=1)
    wrap = ends[..., -1] <= first[..., 0] + dtype(m)
    return ok & wrap.reshape(rows, -1).all(axis=1)


def _cluster_collisions(m: int, demands, streams: "_Streams"):
    """Cluster: one uniform arc start per instance, overlap ⇔ collision."""
    starts = streams.uniform(m, len(demands))
    lengths = _np.asarray(demands, dtype=_np.uint64)
    return ~_circular_arcs_disjoint(m, starts, lengths)


def _bins_star_collisions(m: int, demands, streams: "_Streams"):
    """Bins*: per-chunk birthday events over the reaching instances."""
    num_chunks = chunk_count(m)
    collided = _np.zeros(len(streams.keys), dtype=bool)
    for chunk in range(num_chunks):
        reaching = sum(1 for d in demands if d >= (1 << chunk))
        if reaching <= 1:
            break  # chunks only get emptier as the threshold doubles
        bins_here = 1 << (num_chunks - 1 - chunk)
        picks = streams.uniform(bins_here, reaching)
        picks.sort(axis=1)
        collided |= (picks[:, 1:] == picks[:, :-1]).any(axis=1)
    return collided


def _cluster_star_run_lengths(demand: int) -> Tuple[List[int], int]:
    """Intended run lengths ``1, 2, ..., 2^(k-1)`` and the emitted tail.

    ``k = ⌈log₂(demand+1)⌉ = demand.bit_length()`` runs cover the
    demand; the final run is placed at full length but only its first
    ``demand - (2^(k-1) - 1)`` IDs are emitted.
    """
    k = demand.bit_length()
    lengths = [1 << j for j in range(k)]
    emitted_tail = demand - ((1 << (k - 1)) - 1)
    return lengths, emitted_tail


class _RunLayout(NamedTuple):
    """Where a Cluster* row keeps each run, and what the kernel tests.

    Instance ``i``'s runs take consecutive columns in placement order,
    so column order is the order the python engine draws them in. One
    layout is cached per profile and shared, so its arrays are read-only.
    """

    intended: object  # uint64 length each column's run is placed at
    emitted: object  # uint64 IDs each column's run emits
    groups: tuple  # one (instances, k) column array per run count k >= 2
    first: object  # columns first < second of every same-instance
    second: object  # run pair, ordered by second


@lru_cache(maxsize=64)
def _cluster_star_layout(demands: Tuple[int, ...]) -> _RunLayout:
    intended: List[int] = []
    emitted: List[int] = []
    pairs: List[Tuple[int, int]] = []
    by_count: Dict[int, List[List[int]]] = {}
    for demand in demands:
        lengths, emitted_tail = _cluster_star_run_lengths(demand)
        columns = list(range(len(intended), len(intended) + len(lengths)))
        if len(columns) > 1:
            by_count.setdefault(len(columns), []).append(columns)
        pairs += [(a, b) for b in columns for a in columns if a < b]
        intended += lengths
        emitted += lengths[:-1] + [emitted_tail]
    first, second = _np.asarray(pairs, dtype=_np.intp).reshape(-1, 2).T
    layout = _RunLayout(
        _np.asarray(intended, dtype=_np.uint64),
        _np.asarray(emitted, dtype=_np.uint64),
        tuple(_np.asarray(columns) for columns in by_count.values()),
        first,
        second,
    )
    for array in (layout.intended, layout.emitted, first, second, *layout.groups):
        array.flags.writeable = False
    return layout


def _cluster_star_collisions(m: int, demands, streams: "_Streams"):
    """Cluster*: speculative run placement, an exact path, the arcs test.

    Every row first draws all its run starts at once. A row whose draws
    are all below the modulo limit, and whose instances' runs (at their
    intended lengths) are disjoint, is what sequential placement gives
    when every draw is accepted at the first try. The other rows go
    back to their first draw and through :func:`_place_runs_in_order`.

    Returns ``(collided, fallback)``; rows flagged in ``fallback`` hit
    the placement-round cap (possible only under extreme fragmentation,
    which the planner's ``k·2^k ≤ m`` gate makes astronomically rare)
    and must be replayed through the python game loop.
    """
    layout = _cluster_star_layout(tuple(demands))
    runs = len(layout.intended)
    values = streams.draw(runs)
    starts = _reduce(values, m)
    limit = _modulo_limit(m)
    if limit is None:
        accepted = _np.ones(len(starts), dtype=bool)
    else:
        accepted = (values < limit).all(axis=1)
    for columns in layout.groups:
        accepted &= _circular_arcs_disjoint(
            m, starts[:, columns], layout.intended[columns]
        )
    fallback = _np.zeros(len(starts), dtype=bool)
    redo = _np.nonzero(~accepted)[0]
    if redo.size:
        streams.pos[redo] -= _np.uint64(runs)
        starts[redo], fallback[redo] = _place_runs_in_order(
            m, streams, redo, values[redo], layout
        )
    collided = ~_circular_arcs_disjoint(m, starts, layout.emitted)
    return collided, fallback


def _place_runs_in_order(m: int, streams: "_Streams", rows, values, layout):
    """Sequential rejection placement of every run, for ``rows`` at once.

    The python engine's law: each run draws uniform starts until one
    is below the modulo limit and clear of its instance's earlier runs.
    ``values`` holds each row's next draws, one per run, not yet
    consumed. Each round keeps a row's runs before its first rejected
    draw, consumes that draw, and draws the runs still to place. A
    draw that clashes (not one past the modulo limit) counts as a
    placement rejection of its run; a row whose run is rejected
    ``_MAX_PLACEMENT_ROUNDS`` times is flagged for fallback and stops.
    Clashes are tested on the same-instance pairs, ordered by their
    later run, so the first clashing pair names the first clashing run.

    Returns ``(starts, fallback)`` for ``rows``.
    """
    runs = len(layout.intended)
    columns = _np.arange(runs)
    limit = _modulo_limit(m)
    first, second = layout.first, layout.second
    # Runs a < b of one instance clash iff d = start_b - start_a, give
    # or take m, lies strictly between -len_b and len_a. With d in
    # (-m, m) that is -len_b < d < len_a (one unsigned compare of
    # d + len_b - 1), d < len_a - m, or d > m - len_b.
    len_a = layout.intended[first].astype(_np.int64)
    len_b = layout.intended[second].astype(_np.int64)
    shift, span = len_b - 1, (len_a + len_b - 1).astype(_np.uint64)
    low, high = len_a - m, m - len_b
    block = max(1, _PAIR_BLOCK // max(1, len(first)))
    out = _np.zeros((len(rows), runs), dtype=_np.uint64)
    fallback = _np.zeros(len(rows), dtype=bool)
    # State of the rows still placing, compacted every round: where
    # each sits in ``rows``, its runs so far, how many it has placed,
    # how often the run it is placing was rejected, and how many draws
    # in a row came out past the modulo limit.
    index = _np.arange(len(rows))
    starts = _np.zeros_like(out)
    placed = _np.zeros(len(rows), dtype=_np.intp)
    rejected = _np.zeros_like(placed)
    streak = _np.zeros_like(placed)
    while True:
        pending = columns >= placed[:, None]
        fresh = _np.where(pending, _reduce(values, m), starts)
        signed = fresh.view(_np.int64)
        first_clash = _np.full(len(signed), runs)
        for lo in range(0, len(signed) if len(first) else 0, block):
            part = signed[lo:lo + block]
            d = part.take(second, axis=1) - part.take(first, axis=1)
            clash = (d + shift).view(_np.uint64) < span
            clash |= d < low
            clash |= d > high
            first_clash[lo:lo + block] = _np.where(
                clash.any(axis=1), second[clash.argmax(axis=1)], runs
            )
        if limit is None:
            first_over = _np.full(len(index), runs)
        else:
            over = pending & (values >= limit)
            first_over = _np.where(
                over.any(axis=1), over.argmax(axis=1), runs
            )
        stop = _np.minimum(first_clash, first_over)
        streams.pos[rows[index]] += (
            _np.minimum(stop + 1, runs) - placed
        ).astype(_np.uint64)
        moved = stop > placed
        is_over = (first_over <= first_clash) & (first_over < runs)
        rejected = _np.where(moved, 0, rejected) + (first_clash < first_over)
        streak = _np.where(is_over, _np.where(moved, 0, streak) + 1, 0)
        if (streak >= _MAX_REJECT_ROUNDS).any():
            raise GameError(  # pragma: no cover - P <= 2**-512 per draw
                "uniform rejection sampling did not converge"
            )
        capped = rejected >= _MAX_PLACEMENT_ROUNDS
        fallback[index[capped]] = True
        done = stop == runs
        out[index[done]] = fresh[done]
        keep = ~(done | capped)
        if not keep.any():
            return out, fallback
        index, starts, placed = index[keep], fresh[keep], stop[keep]
        rejected, streak = rejected[keep], streak[keep]
        values = streams.peek(
            (columns - placed[:, None]).astype(_np.uint64), rows[index]
        )


# ---------------------------------------------------------------------------
# Planning and execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorPlan:
    """A picklable recipe for counting collisions of one (spec, m, D).

    Built by :func:`plan_profile`; executed with
    :meth:`count_collisions`. The plan is pure data, so worker
    processes can reconstruct results bit-identically.
    """

    kind: str  # "subsets" | "cluster" | "bins_star" | "cluster_star"
    spec: str
    m: int
    demands: Tuple[int, ...]
    #: Subsets kernel only: the sampling universe (m, or ⌊m/k⌋ bins)
    #: and how many distinct elements each instance picks from it.
    universe: int = 0
    sizes: Tuple[int, ...] = ()

    def _row_width(self) -> int:
        """Array elements one trial needs — sizes the internal chunks."""
        if self.kind == "subsets":
            return max(1, sum(self.sizes))
        if self.kind == "cluster":
            return max(1, len(self.demands))
        if self.kind == "bins_star":
            return max(1, len(self.demands) * chunk_count(self.m))
        # Cluster*: one column per run, and one per same-instance run
        # pair for the rows the exact path places.
        runs = [d.bit_length() for d in self.demands]
        return max(1, sum(k * (k + 1) // 2 for k in runs))

    def count_collisions(
        self, seed: int, offset: int, stride: int, trials: int
    ) -> int:
        """Collision count over trials ``offset, offset+stride, ... < trials``.

        A pure function of ``seed`` and the trial indices: chunking is
        internal and workers may split the index set any way they like.
        """
        indices = _np.arange(offset, trials, stride, dtype=_np.int64)
        if indices.size == 0:
            return 0
        chunk = max(256, _CHUNK_ELEMENTS // self._row_width())
        total = 0
        for low in range(0, indices.size, chunk):
            total += self._count_chunk(seed, indices[low:low + chunk])
        return total

    def _count_chunk(self, seed: int, trial_indices) -> int:
        streams = _Streams(trial_keys(seed, trial_indices))
        if self.kind == "subsets":
            collided = _subsets_collisions(self.universe, self.sizes, streams)
        elif self.kind == "cluster":
            collided = _cluster_collisions(self.m, self.demands, streams)
        elif self.kind == "bins_star":
            collided = _bins_star_collisions(self.m, self.demands, streams)
        elif self.kind == "cluster_star":
            collided, fallback = _cluster_star_collisions(
                self.m, self.demands, streams
            )
            if fallback.any():
                collided = self._replay_fallback(
                    seed, trial_indices, collided, fallback
                )
        else:  # pragma: no cover - plans are built by plan_profile only
            raise ConfigurationError(f"unknown vector plan kind {self.kind!r}")
        return int(_np.count_nonzero(collided))

    def _replay_fallback(self, seed, trial_indices, collided, fallback):
        """Replay placement-capped trials through the python game path."""
        from repro.simulation.batch import (
            ObliviousFactory,
            SpecFactory,
            play_trial,
        )

        factory = SpecFactory(self.spec)
        adversary_factory = ObliviousFactory(DemandProfile(self.demands))
        collided = collided.copy()
        for row in _np.nonzero(fallback)[0]:
            collided[row] = play_trial(
                factory,
                self.m,
                adversary_factory,
                seed,
                int(trial_indices[row]),
            )
        return collided


def plan_profile(
    spec: str, m: int, profile: DemandProfile
) -> Optional[VectorPlan]:
    """Build a :class:`VectorPlan` for ``(spec, m, profile)``, or ``None``.

    The spec is read by :func:`~repro.core.registry.parse_spec`, so a
    malformed one raises :class:`~repro.errors.ConfigurationError`.
    ``None`` means "use the python engine": NumPy missing, ``skew``
    (no kernel), a universe past uint64 headroom, or a profile in a
    regime the kernels do not model (overflowing bins, demands beyond
    the Bins* schedule, rejection densities past the gates). The
    decision is deterministic in the arguments, so parent and worker
    processes always agree.
    """
    name, args = parse_spec(spec)
    if _np is None or not 1 <= m <= _MAX_UNIVERSE:
        return None
    demands = tuple(profile.demands)
    if not demands or max(demands) > m:
        return None
    if name == "random":
        # Whole-row rejection needs acceptance ~exp(-d²/2m) per row.
        if any(d * d > 4 * m for d in demands):
            return None
        return VectorPlan(
            "subsets", spec, m, demands, universe=m, sizes=demands
        )
    if name == "bins":
        (k,) = args
        if not 1 <= k <= m:
            return None
        num_bins = m // k
        # The shared-bin ⇔ collision reduction only holds while every
        # instance stays inside the binned region (no leftover tail).
        if any(d > num_bins * k for d in demands):
            return None
        sizes = tuple(-(-d // k) for d in demands)
        if any(b * b > 4 * num_bins for b in sizes):
            return None
        return VectorPlan(
            "subsets", spec, m, demands, universe=num_bins, sizes=sizes
        )
    if name == "cluster":
        # Total demand beyond m would exhaust instances mid-trial; the
        # game loop owns those semantics.
        if sum(demands) > m:
            return None
        return VectorPlan("cluster", spec, m, demands)
    if name == "bins_star":
        if m < 4:
            return None
        if max(demands) > (1 << chunk_count(m)) - 1:
            return None  # beyond the paper's schedule: python fallback
        return VectorPlan("bins_star", spec, m, demands)
    if name == "cluster_star":
        # The paper's own regime (d ≲ m/(2 log m)): placement rejection
        # keeps acceptance >= 1/2 per draw when k·2^k <= m.
        if any(
            d.bit_length() * (1 << d.bit_length()) > m for d in demands
        ):
            return None
        return VectorPlan("cluster_star", spec, m, demands)
    return None
