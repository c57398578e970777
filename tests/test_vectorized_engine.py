"""The NumPy vectorized trial engine (repro.simulation.vectorized).

Four guarantees are under test:

* **Statistical equivalence** — for every family with a closed form
  (Random, Cluster, Bins(k), Bins*), the ``SimulationPlan(engine="numpy")`` estimate
  agrees with the exact probability of :mod:`repro.analysis.exact`
  within the 95% Wilson CI across a grid of ``(m, profile)`` points;
  Cluster* (no closed form) is checked against the python engine.
* **Determinism** — NumPy-engine estimates are bit-identical at every
  ``workers=`` count (per-trial counter-based streams), and fixed-seed
  regression values pin the exact draws.
* **Dispatch** — workloads the kernels cannot express (non-spec
  factories, out-of-family specs, out-of-regime profiles) run the
  python path unchanged, bit-identical to ``engine="python"``; unknown
  engines are rejected.
* **Seed-derivation parity** — the vectorized SplitMix64 reproduces
  :func:`repro.simulation.seeds.derive_seed` bit for bit, and the
  rejection-sampled uniforms are exact (in-range, unbiased law).
* **Kernel references** — the sorted arcs test and the speculative
  Cluster* placement agree row for row with the straightforward
  argsort test and round-by-round placement loop kept here.
"""

import math
import random

import pytest

numpy = pytest.importorskip("numpy")

from repro.adversary.adaptive import AdaptiveAdversary
from repro.adversary.attacks import (
    ClosestPairAttack,
    GreedyGapAttack,
    RunSaturationAttack,
)
from repro.adversary.profiles import DemandProfile
from repro.analysis.exact import (
    bins_collision_probability,
    bins_star_collision_probability,
    cluster_collision_probability,
    random_collision_probability,
)
from repro.core.registry import make_generator
from repro.errors import ConfigurationError
from repro.simulation.batch import AttackFactory, SpecFactory
from repro.simulation.montecarlo import (
    estimate_collision_probability,
    estimate_profile_collision,
)
from repro.simulation.plan import SimulationPlan
from repro.simulation.seeds import derive_seed
import repro.simulation.vectorized as vectorized
from repro.simulation.vectorized import (
    NUMPY_SEED_LABEL,
    _circular_arcs_disjoint,
    _cluster_star_collisions,
    _cluster_star_run_lengths,
    _Streams,
    plan_profile,
    trial_keys,
)


def _exact_probability(spec: str, m: int, profile: DemandProfile) -> float:
    name = spec.split(":")[0]
    if name == "random":
        return float(random_collision_probability(m, profile))
    if name == "cluster":
        return float(cluster_collision_probability(m, profile))
    if name == "bins":
        k = int(spec.split(":")[1])
        return float(bins_collision_probability(m, k, profile))
    return float(bins_star_collision_probability(m, profile))


# ---------------------------------------------------------------------------
# Seed-derivation parity and exact uniform sampling
# ---------------------------------------------------------------------------


def test_trial_keys_match_scalar_derive_seed():
    keys = trial_keys(20230414, numpy.arange(64))
    expected = [
        derive_seed(20230414, trial, NUMPY_SEED_LABEL) for trial in range(64)
    ]
    assert [int(key) for key in keys] == expected


def test_trial_keys_depend_on_seed():
    a = trial_keys(1, numpy.arange(8))
    b = trial_keys(2, numpy.arange(8))
    assert not (a == b).any()


def test_uniform_in_range_and_roughly_uniform():
    streams = _Streams(trial_keys(7, numpy.arange(2000)))
    # 5 does not divide 2**64, so this exercises the rejection path.
    values = streams.uniform(5, 10)
    assert values.min() >= 0 and values.max() < 5
    counts = numpy.bincount(values.ravel(), minlength=5)
    expected = values.size / 5
    for count in counts:
        assert abs(count - expected) < 5 * math.sqrt(expected)


@pytest.mark.parametrize(
    "bound",
    [
        1 << 32,  # the widest bound kept in uint32: a mask, no rejection
        (1 << 32) + 1,  # the narrowest in uint64: a modulo
        3 << 59,  # a modulo that rejects one draw in 16
    ],
)
def test_uniform_matches_modulo_reference(bound):
    """Same values and stream positions as raw draws reduced with a
    Python-int modulo after per-element rejection, in the narrowest
    dtype that holds ``bound - 1``."""
    keys = trial_keys(13, numpy.arange(300))
    kernel, reference = _Streams(keys), _Streams(keys)
    values = kernel.uniform(bound, 6)
    limit = (1 << 64) // bound * bound
    expected = [[int(v) for v in row] for row in reference.draw(6)]
    for row, raw in enumerate(expected):
        while any(v >= limit for v in raw):
            fresh = reference.draw(6, numpy.array([row]))[0]
            raw[:] = [int(f) if v >= limit else v for v, f in zip(raw, fresh)]
    assert values.dtype == (
        numpy.uint32 if bound <= 1 << 32 else numpy.uint64
    )
    assert values.tolist() == [[v % bound for v in raw] for raw in expected]
    assert (kernel.pos == reference.pos).all()


def test_distinct_uniform_has_no_row_duplicates():
    # size² <= 4·universe — the densest regime the planner admits.
    streams = _Streams(trial_keys(11, numpy.arange(500)))
    values = streams.distinct_uniform(16, 8)
    for row in values:
        assert len(set(int(v) for v in row)) == 8


# ---------------------------------------------------------------------------
# Statistical equivalence against the exact closed forms
# ---------------------------------------------------------------------------

#: The equivalence grid: every vectorized family with a closed form,
#: across universes and profile shapes. Seeds are fixed (one block per
#: grid point), making the suite deterministic; the block was validated
#: to put every point well inside its CI (worst |z| ≈ 1.2), so the
#: checks have slack against benign draw-order changes while still
#: catching any systematic kernel bias.
EQUIVALENCE_GRID = [
    ("random", 65536, (64, 64, 64, 64)),
    ("random", 65536, (100, 50, 25)),
    ("random", 1 << 20, (128,) * 8),
    ("cluster", 4096, (64, 64)),
    ("cluster", 8192, (32,) * 8),
    ("cluster", 16384, (512, 256, 128, 64)),
    ("bins:16", 65536, (64,) * 8),
    ("bins:4", 16384, (64, 32, 16)),
    ("bins:256", 1 << 20, (1024, 512)),
    ("bins_star", 65536, (64,) * 8),
    ("bins_star", 4096, (256, 128, 4, 2)),
]


@pytest.mark.parametrize(
    "index,spec,m,demands",
    [
        (index, spec, m, demands)
        for index, (spec, m, demands) in enumerate(EQUIVALENCE_GRID)
    ],
    ids=[f"{spec}-m{m}" for spec, m, _demands in EQUIVALENCE_GRID],
)
def test_numpy_engine_matches_exact_within_wilson_ci(
    index, spec, m, demands
):
    profile = DemandProfile(demands)
    estimate = estimate_profile_collision(
        SpecFactory(spec),
        m,
        profile,
        trials=4000,
        seed=2_000_107 + 7919 * index,
        plan=SimulationPlan(engine="numpy"),
    )
    exact = _exact_probability(spec, m, profile)
    assert estimate.ci_low <= exact <= estimate.ci_high, (
        f"{spec} on m={m}, D={demands}: exact {exact:.5f} outside "
        f"the 95% CI of {estimate}"
    )


def test_cluster_star_engines_statistically_agree():
    """No closed form for Cluster*: the two engines must cross-validate."""
    profile = DemandProfile((100, 80, 60, 40))
    python_est = estimate_profile_collision(
        SpecFactory("cluster_star"), 16384, profile,
        trials=1500, seed=3, plan=SimulationPlan(engine="python"),
    )
    numpy_est = estimate_profile_collision(
        SpecFactory("cluster_star"), 16384, profile,
        trials=8000, seed=3, plan=SimulationPlan(engine="numpy"),
    )
    assert (
        numpy_est.ci_low <= python_est.ci_high
        and python_est.ci_low <= numpy_est.ci_high
    ), f"engine CIs disjoint: python {python_est} vs numpy {numpy_est}"


# ---------------------------------------------------------------------------
# Determinism: regressions and worker independence
# ---------------------------------------------------------------------------

#: (spec, m, demands, successes) at seed=123, trials=2000. These pin
#: the engine's exact draw sequence: any change to the kernels' stream
#: consumption is a new RNG universe and must be called out loudly.
#: The first five reduce draws with a mask in uint32; the next four
#: sample universes that are not powers of two (a modulo with
#: rejection), and the last three work in uint64 (one with a mask).
REGRESSION_GOLDENS = [
    ("random", 65536, (64, 64, 64, 64), 642),
    ("cluster", 8192, (32,) * 8, 353),
    ("bins:16", 65536, (64,) * 8, 195),
    ("bins_star", 4096, (256, 128, 4, 2), 1492),
    ("cluster_star", 16384, (100, 80, 60, 40), 550),
    ("random", 65521, (64, 64, 64, 64), 640),
    ("cluster", 8191, (32,) * 8, 393),
    ("bins:3", 65536, (64,) * 8, 945),  # 21,845 bins
    ("cluster_star", 16381, (100, 80, 60, 40), 540),
    ("cluster", 1 << 33, (1 << 28,) * 4, 668),
    ("cluster", (3 << 32) + 1, (1 << 28,) * 4, 457),
    ("random", (1 << 32) + 15, (1024,) * 16, 40),
]


def _golden_ids(rows):
    """The first row of each spec is named by the spec, later ones by
    spec and universe."""
    seen, ids = set(), []
    for spec, m, _demands, _successes in rows:
        ids.append(f"{spec}-m{m}" if spec in seen else spec)
        seen.add(spec)
    return ids


@pytest.mark.parametrize(
    "spec,m,demands,successes",
    REGRESSION_GOLDENS,
    ids=_golden_ids(REGRESSION_GOLDENS),
)
def test_numpy_engine_fixed_seed_regression(spec, m, demands, successes):
    estimate = estimate_profile_collision(
        SpecFactory(spec), m, DemandProfile(demands),
        trials=2000, seed=123, plan=SimulationPlan(engine="numpy"),
    )
    assert estimate.successes == successes


def test_numpy_engine_bit_identical_across_workers():
    profile = DemandProfile((32,) * 8)
    serial = estimate_profile_collision(
        SpecFactory("cluster"), 8192, profile,
        trials=900, seed=11, plan=SimulationPlan(engine="numpy"),
    )
    sharded = estimate_profile_collision(
        SpecFactory("cluster"), 8192, profile,
        trials=900, seed=11,
        plan=SimulationPlan(engine="numpy", workers=3),
    )
    assert serial == sharded


def test_numpy_engine_independent_of_internal_chunking(monkeypatch):
    plans = [
        plan_profile("random", 65536, DemandProfile((64, 64, 64))),
        plan_profile("cluster", 8192, DemandProfile((32,) * 8)),
        plan_profile("bins_star", 4096, DemandProfile((256, 128, 4, 2))),
        # About one row in eight takes Cluster*'s exact path, so small
        # chunks run it in several chunks.
        plan_profile("cluster_star", 16384, DemandProfile((100, 80, 60, 40))),
    ]
    full = [plan.count_collisions(5, 0, 1, 1200) for plan in plans]
    monkeypatch.setattr(vectorized, "_CHUNK_ELEMENTS", 1 << 10)
    assert [plan.count_collisions(5, 0, 1, 1200) for plan in plans] == full


# ---------------------------------------------------------------------------
# Kernel references: the sorted arcs test and speculative Cluster*
# placement against the straightforward versions
# ---------------------------------------------------------------------------


def _reference_arcs_disjoint(m, starts, lengths):
    """Sort each row by start; disjoint iff every forward gap, the
    wrap-around one included, fits the earlier arc."""
    order = numpy.argsort(starts, axis=1, kind="stable")
    sorted_starts = numpy.take_along_axis(starts, order, axis=1)
    sorted_lengths = lengths[order]
    gaps = sorted_starts[:, 1:] - sorted_starts[:, :-1]
    ok = (gaps >= sorted_lengths[:, :-1]).all(axis=1)
    wrap = (numpy.uint64(m) - sorted_starts[:, -1]) + sorted_starts[:, 0]
    return ok & (wrap >= sorted_lengths[:, -1])


def _reference_cluster_star(m, demands, streams, max_rounds):
    """Place one run at a time for all rows, redrawing the rows whose
    run clashes with an earlier run of its instance, round by round."""
    trials = len(streams.keys)
    m_u64 = numpy.uint64(m)
    fallback = numpy.zeros(trials, dtype=bool)
    columns, arc_lengths = [], []
    for demand in demands:
        lengths, emitted_tail = _cluster_star_run_lengths(demand)
        placed = []
        for index, length in enumerate(lengths):
            starts = streams.uniform(m, 1)[:, 0]
            for _ in range(max_rounds):
                bad = numpy.zeros(trials, dtype=bool)
                for prev_starts, prev_length in placed:
                    forward = (starts + (m_u64 - prev_starts)) % m_u64
                    backward = (prev_starts + (m_u64 - starts)) % m_u64
                    bad |= (forward < numpy.uint64(prev_length)) | (
                        backward < numpy.uint64(length)
                    )
                bad_rows = numpy.nonzero(bad)[0]
                if bad_rows.size == 0:
                    break
                starts[bad_rows] = streams.uniform(m, 1, bad_rows)[:, 0]
            else:
                fallback |= bad
            placed.append((starts, length))
            columns.append(starts)
            arc_lengths.append(
                length if index < len(lengths) - 1 else emitted_tail
            )
    collided = ~_reference_arcs_disjoint(
        m,
        numpy.stack(columns, axis=1),
        numpy.asarray(arc_lengths, dtype=numpy.uint64),
    )
    return collided, fallback


def _assert_cluster_star_matches_reference(m, demands, trials, seed):
    """Same fallback rows; same collision and stream position on every
    other row. Returns the number of fallback rows."""
    keys = trial_keys(seed, numpy.arange(trials))
    reference, kernel = _Streams(keys), _Streams(keys)
    want_collided, want_fallback = _reference_cluster_star(
        m, demands, reference, vectorized._MAX_PLACEMENT_ROUNDS
    )
    collided, fallback = _cluster_star_collisions(m, demands, kernel)
    assert (fallback == want_fallback).all()
    kept = ~fallback
    assert (collided[kept] == want_collided[kept]).all()
    assert (kernel.pos[kept] == reference.pos[kept]).all()
    return int(fallback.sum())


@pytest.mark.parametrize(
    "m,demands,trials",
    [
        # estimate-mc's Cluster* leg.
        (1 << 20, (256,) * 16, 400),
        # Dense: about one row in eight takes the exact path.
        (16384, (100, 80, 60, 40), 2000),
        # The modulo limit rejects one draw in 16, so every row redraws.
        (3 << 59, (256,) * 16, 200),
        (3 << 59, (1, 3, 1), 400),
        # Single-ID runs only: no run pairs to test.
        (64, (1,) * 12, 2000),
        (7, (1, 1, 1), 2000),
        (3 << 59, (1,) * 4, 400),
        # Tiny universes, where every start gap between two runs occurs.
        (24, (3, 3, 2), 2000),
        (64, (7, 5, 1), 2000),
        # The planner's gate edge, k·2^k = m: nearly every row redraws.
        (4608, (256, 200), 1000),
    ],
)
def test_cluster_star_kernel_matches_round_by_round_reference(
    m, demands, trials
):
    assert plan_profile("cluster_star", m, DemandProfile(demands))
    _assert_cluster_star_matches_reference(m, demands, trials, seed=17)


@pytest.mark.parametrize(
    "max_rounds,m,demands,fallbacks",
    [
        (1, 4096, (60, 60, 60), 180),
        (2, 4096, (60, 60, 60), 3),
        (3, 4096, (60, 60, 60), 0),
        # Draws past the modulo limit are not placement rejections.
        (1, 3 << 59, (256,) * 16, 0),
    ],
)
def test_cluster_star_placement_cap_matches_reference(
    monkeypatch, max_rounds, m, demands, fallbacks
):
    monkeypatch.setattr(vectorized, "_MAX_PLACEMENT_ROUNDS", max_rounds)
    assert (
        _assert_cluster_star_matches_reference(m, demands, 800, seed=5)
        == fallbacks
    )


def test_sorted_arcs_test_matches_argsort_reference():
    """Random rows with repeated starts, wrapping arcs and arcs of
    length m, in universes small enough for all three to be common."""
    rng = random.Random(29)
    for _ in range(3000):
        m = rng.randint(1, 40)
        arcs = rng.randint(1, 8)
        starts = numpy.array(
            [[rng.randrange(m) for _ in range(arcs)] for _ in range(20)],
            dtype=numpy.uint64,
        )
        lengths = numpy.array(
            [rng.randint(1, m) for _ in range(arcs)], dtype=numpy.uint64
        )
        assert (
            _circular_arcs_disjoint(m, starts, lengths)
            == _reference_arcs_disjoint(m, starts, lengths)
        ).all(), (m, starts, lengths)


@pytest.mark.parametrize("m", [1 << 31, (1 << 31) + 1])
def test_sorted_arcs_test_at_the_uint32_edge(m):
    """Arc ends reach 2m − 1: at m = 2^31 they still fit uint32, one
    more and they do not. Starts and lengths at both ends of their
    ranges make arcs that end at 2m − 1 and arcs that wrap."""
    assert vectorized._dtype_below(2 * m) == (
        numpy.uint32 if m <= 1 << 31 else numpy.uint64
    )
    rng = random.Random(m)
    edge_starts = [0, 1, m // 2, m - 2, m - 1]
    edge_lengths = [1, 2, m // 2, m - 1, m]
    for _ in range(200):
        lengths = numpy.array(
            [rng.choice(edge_lengths + [rng.randint(1, m)]) for _ in range(3)],
            dtype=numpy.uint64,
        )
        starts = numpy.array(
            [
                [rng.choice(edge_starts + [rng.randrange(m)]) for _ in range(3)]
                for _ in range(20)
            ],
            dtype=numpy.uint64,
        )
        assert (
            _circular_arcs_disjoint(m, starts, lengths)
            == _reference_arcs_disjoint(m, starts, lengths)
        ).all(), (m, starts, lengths)


# ---------------------------------------------------------------------------
# Dispatch: gates, fallbacks, validation
# ---------------------------------------------------------------------------


def test_plan_profile_accepts_all_vectorized_families():
    profile = DemandProfile((16, 8))
    for spec, kind in [
        ("random", "subsets"),
        ("bins:4", "subsets"),
        ("cluster", "cluster"),
        ("bins_star", "bins_star"),
        ("bins*", "bins_star"),
        ("cluster_star", "cluster_star"),
        ("cluster*", "cluster_star"),
    ]:
        plan = plan_profile(spec, 4096, profile)
        assert plan is not None and plan.kind == kind, spec


def test_plan_profile_rejects_out_of_scope_workloads():
    profile = DemandProfile((16, 8))
    # No closed-form kernel for SkewAware; parameterized stars are not
    # expressible through the registry spec grammar either.
    assert plan_profile("skew:8:16", 4096, profile) is None
    # Universe beyond uint64 headroom.
    assert plan_profile("random", 1 << 127, profile) is None
    # Demand past the Bins* schedule (2^C - 1).
    assert plan_profile("bins_star", 4096, DemandProfile((4096,))) is None
    # A demand overflowing the binned region of Bins(k).
    assert plan_profile("bins:3", 8, DemandProfile((7, 1))) is None
    # Random in the dense regime (rejection acceptance too low).
    assert plan_profile("random", 64, DemandProfile((40, 2))) is None
    # Cluster* past the paper's k·2^k <= m regime.
    assert plan_profile("cluster_star", 64, DemandProfile((40, 2))) is None


def test_numpy_engine_falls_back_bit_identically_for_plain_factories():
    """No SpecFactory => no plan: both engines run the same game loop."""
    profile = DemandProfile((24, 24, 24))

    def factory(m, rng):
        return make_generator("cluster", m, rng)

    results = [
        estimate_profile_collision(
            factory, 4096, profile, trials=300, seed=9,
            plan=SimulationPlan(engine=engine),
        )
        for engine in ("python", "numpy")
    ]
    assert results[0] == results[1]


def test_unknown_engine_rejected():
    with pytest.raises(ConfigurationError):
        estimate_profile_collision(
            SpecFactory("cluster"), 4096, DemandProfile((8, 8)),
            trials=10, plan=SimulationPlan(engine="turbo"),
        )


# ---------------------------------------------------------------------------
# AttackFactory rng threading (satellite of the engine PR)
# ---------------------------------------------------------------------------


class _RecordingAttack(AdaptiveAdversary):
    """Accepts rng (via the base class) and records what it got."""

    def exploit(self, view):
        return None


def test_attack_factory_passes_derived_rng():
    rng = random.Random(42)
    attack = AttackFactory(_RecordingAttack, n=2, d=4)(rng)
    assert attack.rng is rng
    for attack_cls in (
        ClosestPairAttack, GreedyGapAttack, RunSaturationAttack,
    ):
        attack = AttackFactory(attack_cls, n=2, d=4)(rng)
        assert attack.rng is rng


def test_attack_factory_explicit_rng_kwarg_wins():
    explicit = random.Random(1)
    attack = AttackFactory(_RecordingAttack, n=2, d=4, rng=explicit)(
        random.Random(2)
    )
    assert attack.rng is explicit


def test_attack_estimates_unchanged_by_rng_threading():
    """The shipped attacks are deterministic: threading the per-trial
    rng through them must not move any estimate."""
    estimate = estimate_collision_probability(
        SpecFactory("cluster"), 1 << 14,
        AttackFactory(ClosestPairAttack, n=4, d=64),
        trials=200, seed=5,
    )
    assert estimate.trials == 200
    assert 0.0 <= estimate.probability <= 1.0
