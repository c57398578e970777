"""Unit tests for workload generators (distributions, YCSB, demand)."""

import random

import pytest

from repro.errors import ConfigurationError, ProfileError
from repro.workloads.demand import (
    max_skew_profile,
    random_compositions,
    skewed_pair_grid,
)
from repro.workloads.distributions import (
    LatestPicker,
    ScrambledZipfianPicker,
    ZipfianApproxPicker,
    ZipfianPicker,
    make_zipfian,
)
from repro.workloads.ycsb import (
    WorkloadSpec,
    encode_key,
    load_phase,
    make_value,
    run_phase,
)


class TestPickers:
    def test_zipf_is_skewed(self, rng):
        picker = ZipfianPicker(100, theta=0.99)
        picks = [picker.pick(rng) for _ in range(3000)]
        head = sum(1 for p in picks if p < 10)
        assert head > 0.4 * len(picks)  # top 10% gets >40% of traffic

    def test_zipf_theta_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            ZipfianPicker(10, theta=0.0)

    def test_scrambled_zipf_spreads_hot_keys(self, rng):
        picker = ScrambledZipfianPicker(1000, theta=0.99)
        picks = [picker.pick(rng) for _ in range(2000)]
        hottest = max(set(picks), key=picks.count)
        assert hottest >= 10  # the hot key is (whp) not simply rank 0

    def test_latest_prefers_recent(self, rng):
        picker = LatestPicker(1000)
        picks = [picker.pick(rng) for _ in range(1000)]
        assert all(0 <= p < 1000 for p in picks)
        recent = sum(1 for p in picks if p >= 900)
        assert recent > 0.5 * len(picks)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LatestPicker(0)

    def test_latest_respects_window_cap(self, rng):
        picker = LatestPicker(50_000)
        picks = [picker.pick(rng) for _ in range(500)]
        assert all(
            50_000 - LatestPicker.WINDOW_CAP <= p < 50_000 for p in picks
        )

    def test_latest_record_insert_advances_window(self, rng):
        picker = LatestPicker(100)
        picker.record_insert()
        picker.record_insert(4)
        assert picker.insert_count == 105
        picks = [picker.pick(rng) for _ in range(300)]
        assert all(0 <= p < 105 for p in picks)
        assert max(picks) >= 100  # the new keys actually draw reads

    def test_latest_pick_is_deterministic(self):
        a = LatestPicker(2000)
        b = LatestPicker(2000)
        rng_a, rng_b = random.Random(77), random.Random(77)
        assert [a.pick(rng_a) for _ in range(200)] == [
            b.pick(rng_b) for _ in range(200)
        ]


class TestZipfianApprox:
    """The constant-time YCSB sampler against the exact oracle."""

    def test_tv_distance_to_exact_is_small(self):
        # Same distribution family, two samplers: empirical
        # total-variation distance must be approximation error plus
        # sampling noise only (~0.04 at these sizes).
        n, theta, samples = 500, 0.9, 100_000
        exact = ZipfianPicker(n, theta)
        approx = ZipfianApproxPicker(n, theta)
        rng_e, rng_a = random.Random(11), random.Random(12)
        counts_e, counts_a = [0] * n, [0] * n
        for _ in range(samples):
            counts_e[exact.pick(rng_e)] += 1
            counts_a[approx.pick(rng_a)] += 1
        tv = 0.5 * sum(
            abs(a - b) for a, b in zip(counts_e, counts_a)
        ) / samples
        assert tv < 0.08, f"TV distance {tv:.4f} too large"

    def test_initializes_ten_million_keys_fast(self):
        import time

        start = time.perf_counter()
        picker = ZipfianApproxPicker(10**7)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"init took {elapsed:.2f}s"
        rng = random.Random(0)
        picks = [picker.pick(rng) for _ in range(2000)]
        assert all(0 <= p < 10**7 for p in picks)
        # Zipf head: rank 0 alone carries several percent of the mass.
        assert picks.count(0) > 0.02 * len(picks)

    def test_theta_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfianApproxPicker(100, theta=1.0)
        with pytest.raises(ConfigurationError):
            ZipfianApproxPicker(100, theta=0.0)
        with pytest.raises(ConfigurationError):
            ZipfianApproxPicker(0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_degenerate_key_spaces(self, rng, n):
        # n <= 2 makes the eta closed form 0/0; construction and
        # sampling must still work (regression: ZeroDivisionError).
        picker = ZipfianApproxPicker(n)
        picks = [picker.pick(rng) for _ in range(200)]
        assert all(0 <= p < n for p in picks)
        if n > 1:
            assert picks.count(0) > picks.count(1)

    def test_make_zipfian_dispatch(self):
        assert isinstance(make_zipfian(100), ZipfianPicker)
        assert isinstance(
            make_zipfian(100, exact_max=10), ZipfianApproxPicker
        )

    def test_make_zipfian_exact_fallback_for_theta_out_of_domain(self):
        # theta >= 1 is outside the approximation's domain; large n
        # must fall back to the exact picker instead of raising
        # (regression: ScrambledZipfianPicker(n > exact_max, theta=1.0)
        # used to crash).
        picker = make_zipfian(100, theta=1.0, exact_max=10)
        assert isinstance(picker, ZipfianPicker)
        rng = random.Random(1)
        assert all(0 <= picker.pick(rng) < 100 for _ in range(50))
        sampled = ScrambledZipfianPicker(200, theta=1.5)
        assert 0 <= sampled.pick(rng) < 200

    def test_scrambled_hot_key_mass_at_scale(self):
        # n beyond EXACT_CDF_MAX: the scrambled picker runs on the
        # approximate sampler; scrambling must preserve the popularity
        # mass while spreading it over the key space.
        picker = ScrambledZipfianPicker(1_000_000, theta=0.99)
        rng = random.Random(21)
        picks = [picker.pick(rng) for _ in range(20_000)]
        counts = {}
        for p in picks:
            counts[p] = counts.get(p, 0) + 1
        top10 = sorted(counts.values(), reverse=True)[:10]
        top_mass = sum(top10) / len(picks)
        assert 0.10 < top_mass < 0.40, f"top-10 mass {top_mass:.3f}"
        # ... and the hot keys are spread, not the 10 smallest indices.
        hottest = max(counts, key=counts.get)
        assert hottest >= 1000


class TestYCSB:
    def test_keys_sortable_fixed_width(self):
        assert encode_key(5) < encode_key(10) < encode_key(200)

    def test_make_value_size(self, rng):
        assert len(make_value(rng, 48)) == 48

    def test_load_phase_counts(self, rng):
        spec = WorkloadSpec(record_count=25)
        ops = list(load_phase(spec, rng))
        assert len(ops) == 25
        assert all(op == "put" for op, _, _ in ops)

    def test_run_phase_mix_b(self, rng):
        spec = WorkloadSpec(
            workload="b", record_count=100, operation_count=2000
        )
        ops = list(run_phase(spec, rng))
        reads = sum(1 for op, _, _ in ops if op == "get")
        assert 0.9 < reads / len(ops) <= 1.0

    def test_run_phase_d_inserts_new_keys(self, rng):
        spec = WorkloadSpec(
            workload="d", record_count=50, operation_count=400
        )
        ops = list(run_phase(spec, rng))
        inserted = [
            key for op, key, _ in ops if op == "put"
        ]
        assert inserted
        assert all(key >= encode_key(50) for key in inserted)

    def test_run_phase_d_inserts_are_contiguous(self, rng):
        # The insert branch is the single source of truth for the key
        # counter and the latest window: inserted keys must be exactly
        # record_count, record_count+1, ... with no gaps or repeats.
        spec = WorkloadSpec(
            workload="d", record_count=40, operation_count=600
        )
        inserted = [
            key for op, key, _ in run_phase(spec, rng) if op == "put"
        ]
        assert inserted == [encode_key(40 + i) for i in range(len(inserted))]

    def test_run_phase_d_survives_zero_inserts(self, rng):
        # With so few ops the 5% insert probability often rounds to
        # zero actual inserts; reads must still stay in bounds (the
        # in-stream assertion raises if the window drifted).
        for seed in range(20):
            spec = WorkloadSpec(
                workload="d", record_count=30, operation_count=5
            )
            ops = list(run_phase(spec, random.Random(seed)))
            assert len(ops) == 5
            for op, key, _ in ops:
                if op == "get":
                    assert key < encode_key(35)

    @pytest.mark.parametrize("workload", list("abcdef"))
    def test_every_workload_emits_exact_logical_count(self, rng, workload):
        # Regression: workload F used to emit its RMW pair inline and
        # overshoot operation_count by ~25%.
        spec = WorkloadSpec(
            workload=workload, record_count=100, operation_count=800
        )
        assert len(list(run_phase(spec, rng))) == 800

    def test_rmw_is_one_logical_op(self, rng):
        spec = WorkloadSpec(
            workload="f", record_count=20, operation_count=1000
        )
        ops = list(run_phase(spec, rng))
        assert len(ops) == 1000
        kinds = {op for op, _, _ in ops}
        assert kinds == {"get", "rmw"}
        rmw_fraction = sum(1 for op, _, _ in ops if op == "rmw") / len(ops)
        assert 0.4 < rmw_fraction < 0.6
        for op, _key, value in ops:
            if op == "rmw":
                assert len(value) == spec.value_size  # carries the new value

    def test_workload_e_scan_mix(self, rng):
        spec = WorkloadSpec(
            workload="e", record_count=100, operation_count=1000,
            max_scan_length=25,
        )
        ops = list(run_phase(spec, rng))
        assert len(ops) == 1000
        scans = [(key, value) for op, key, value in ops if op == "scan"]
        inserts = [key for op, key, _ in ops if op == "put"]
        assert 0.9 < len(scans) / len(ops) <= 1.0
        assert inserts and all(key >= encode_key(100) for key in inserts)
        for _key, value in scans:
            assert 1 <= int(value) <= 25

    def test_workload_e_rejects_bad_scan_length(self, rng):
        spec = WorkloadSpec(workload="e", max_scan_length=0)
        with pytest.raises(ConfigurationError):
            list(run_phase(spec, rng))

    def test_unknown_workload(self, rng):
        spec = WorkloadSpec(workload="z")
        with pytest.raises(ConfigurationError):
            list(run_phase(spec, rng))

    @pytest.mark.parametrize("workload", list("abcdef"))
    def test_full_workload_stream_is_seed_deterministic(self, workload):
        # The stream a driver shard executes: the load phase, then the
        # run phase drawn from the same RNG.
        spec = WorkloadSpec(
            workload=workload, record_count=50, operation_count=200
        )

        def stream(seed):
            rng = random.Random(seed)
            return list(load_phase(spec, rng)) + list(run_phase(spec, rng))

        first = stream(123)
        assert first == stream(123)
        assert first != stream(124)


class TestDemandGenerators:
    def test_skewed_pair_grid(self):
        grid = list(skewed_pair_grid(2))
        assert [(i, j) for i, j, _ in grid] == [
            (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2),
        ]
        for i, j, profile in grid:
            assert profile.demands == (1 << i, 1 << j)

    def test_random_compositions_family(self):
        for profile in random_compositions(4, 32, 20, seed=3):
            assert profile.n == 4 and profile.total == 32

    def test_max_skew(self):
        assert max_skew_profile(4, 10).demands == (7, 1, 1, 1)
        with pytest.raises(ProfileError):
            max_skew_profile(1, 10)
