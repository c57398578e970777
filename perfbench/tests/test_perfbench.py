"""Self-tests of the benchmark's own arithmetic and input generator.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.host import CoresReference, NOMINAL_REF_US, scale_factor  # noqa: E402
from perfbench.inputs import (  # noqa: E402
    ScrambledZipfian,
    make_kv_inputs,
    stream_digest,
    sub_rng,
)
from perfbench.measure import ChunkClock, SetupTimer, Totals  # noqa: E402
from perfbench.stats import (  # noqa: E402
    percentile,
    ppm_label,
    samples_beyond,
    tail_ppm,
)
from perfbench.trace import Tracer, self_times  # noqa: E402


# -- input generator ---------------------------------------------------------


def test_fixed_seed_gives_fixed_stream_digest():
    inputs = make_kv_inputs(7, "selftest", records=500, ops=2000, get_fraction=0.5)
    assert stream_digest(inputs) == "23667e204d46da59f7dd32fb89909ca8"


def test_stream_is_pure_in_seed_and_label():
    first = make_kv_inputs(7, "selftest", 300, 600, 0.95)
    again = make_kv_inputs(7, "selftest", 300, 600, 0.95)
    other_seed = make_kv_inputs(8, "selftest", 300, 600, 0.95)
    other_label = make_kv_inputs(7, "other", 300, 600, 0.95)
    assert stream_digest(first) == stream_digest(again)
    assert stream_digest(first) != stream_digest(other_seed)
    assert stream_digest(first) != stream_digest(other_label)


def test_stream_mix_and_skew():
    inputs = make_kv_inputs(3, "mix", records=1000, ops=20_000, get_fraction=0.95)
    gets = sum(1 for is_get, _, _ in inputs.ops if is_get)
    assert 0.94 < gets / len(inputs.ops) < 0.96
    assert all(len(value) == 100 for _, _, value in inputs.ops if value is not None)
    counts = {}
    for _, key, _ in inputs.ops:
        counts[key] = counts.get(key, 0) + 1
    # Zipf(0.99) over 1000 keys: the hottest key draws ~13% of ops.
    assert max(counts.values()) / len(inputs.ops) > 0.08


def test_zipfian_ranks_stay_in_range():
    picker = ScrambledZipfian(50)
    rng = sub_rng(1, "ranks")
    picks = [picker.pick(rng) for _ in range(5000)]
    assert min(picks) >= 0 and max(picks) < 50


def test_generator_does_not_import_the_library_workloads():
    code = (
        "import sys; import perfbench.inputs; "
        "print(sorted(m for m in sys.modules if m.startswith('repro')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


# -- tail percentile rule ----------------------------------------------------


@pytest.mark.parametrize(
    "count, cap, expected",
    [
        (10_000, 999_000, 999_000),  # exactly 10 samples beyond p99.9
        (9_999, 999_000, 990_000),  # 9 beyond p99.9 -> fall back to p99
        (1_000, 999_000, 990_000),
        (999, 999_000, 900_000),  # 9 beyond p99
        (1_000_000, 990_000, 990_000),  # the cap wins
        (20, 999_000, 500_000),
        (19, 999_000, 500_000),  # too few samples: the median
    ],
)
def test_highest_percentile_with_ten_samples_beyond(count, cap, expected):
    assert tail_ppm(count, cap) == expected
    if count >= 20:
        assert samples_beyond(count, expected) >= 10


def test_nearest_rank_percentile_and_labels():
    values = list(range(1, 101))
    assert percentile(values, 500_000) == 50
    assert percentile(values, 900_000) == 90
    assert percentile(values, 990_000) == 99
    assert percentile(values, 999_000) == 100
    assert ppm_label(999_000) == "p99.9"
    assert ppm_label(990_000) == "p99"
    assert ppm_label(500_000) == "p50"


# -- self-time arithmetic ----------------------------------------------------


def test_self_time_on_synthetic_span_tree():
    # 0: root [0, 100]
    # 1: child [10, 30] with grandchild 4: [12, 18]
    # 2: child [20, 50] overlapping child 1 -> union [10, 50]
    # 3: child [90, 120] sticking out -> clipped to [90, 100]
    starts = [0, 10, 20, 90, 12]
    ends = [100, 30, 50, 120, 18]
    parents = [-1, 0, 0, 0, 1]
    assert self_times(starts, ends, parents) == [50, 14, 30, 30, 6]


def test_tracer_nests_spans_and_restores_originals():
    class Inner:
        def work(self):
            return 1

    class Outer:
        def __init__(self):
            self.inner = Inner()

        def run(self):
            return self.inner.work() + self.inner.work()

    original = Outer.__dict__["run"]
    tracer = Tracer()
    tracer.add(Outer, "run", "outer")
    tracer.add(Inner, "work", "inner")
    tracer.install()
    assert Outer().run() == 2
    tracer.uninstall()
    assert Outer.__dict__["run"] is original
    agg = tracer.aggregate()
    assert agg.count["outer"] == 1 and agg.count["inner"] == 2
    assert agg.nested[("outer", "inner")] == agg.total_ns["inner"]
    # Self times partition the top-level span.
    assert agg.self_ns["outer"] + agg.self_ns["inner"] == agg.total_ns["outer"]


# -- host scaling ------------------------------------------------------------


def test_scaling_formula():
    # A host running the kernel at half speed takes twice the nominal
    # time; a 10 ms chunk there is 5 ms on the nominal host.
    factor = scale_factor(2 * NOMINAL_REF_US, 2 * NOMINAL_REF_US)
    assert factor == pytest.approx(0.5)
    assert 10.0 * factor == pytest.approx(5.0)
    # The chunk's reference is the mean of the bracketing measurements.
    assert scale_factor(NOMINAL_REF_US, 3 * NOMINAL_REF_US) == pytest.approx(0.5)


class _FakeRef:
    def __init__(self, values):
        self.samples_us = []
        self._values = iter(values)

    def measure(self):
        value = next(self._values)
        self.samples_us.append(value)
        return value


def test_chunk_clock_books_scaled_time():
    ref = _FakeRef([NOMINAL_REF_US, 2 * NOMINAL_REF_US, 2 * NOMINAL_REF_US])
    clock = ChunkClock(ref, seconds=0.0, trace=False)
    assert clock.finish_chunk(1_000_000, 10) == pytest.approx(NOMINAL_REF_US / (1.5 * NOMINAL_REF_US))
    assert clock.finish_chunk(1_000_000, 10) == pytest.approx(0.5)
    assert clock.plain.ops == 20 and clock.plain.raw_ns == 2_000_000
    assert clock.plain.scaled_ns == pytest.approx(1_000_000 * (1 / 1.5 + 0.5))
    assert Totals(ops=10, raw_ns=1_000_000_000).rate(scaled=False) == 10.0


def test_setup_timer_scales_each_step_by_its_brackets():
    timer = SetupTimer(_FakeRef([NOMINAL_REF_US, 2 * NOMINAL_REF_US, 2 * NOMINAL_REF_US]))
    with timer.step():
        sum(range(10_000))
    first = timer.raw_s
    assert first > 0 and timer.scaled_s == pytest.approx(first / 1.5)
    with timer.step():
        sum(range(10_000))
    assert timer.scaled_s == pytest.approx(first / 1.5 + (timer.raw_s - first) * 0.5)
    # Without a reference the steps run untimed.
    untimed = SetupTimer()
    ran = []
    with untimed.step():
        ran.append(True)
    assert ran and untimed.raw_s == untimed.scaled_s == 0.0


def test_cores_reference_ends_on_the_first_core():
    original = os.sched_getaffinity(0)
    cores = sorted(original)[:2]
    if len(cores) < 2:
        pytest.skip("needs two CPUs")
    try:
        ref = CoresReference(cores)
        assert ref.measure() > 0 and len(ref.samples_us) == 1
        assert os.sched_getaffinity(0) == {cores[0]}
    finally:
        os.sched_setaffinity(0, original)
