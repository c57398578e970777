"""Unit tests for circular interval arithmetic (repro.core.intervals)."""

import random

import pytest

from repro.core.intervals import CircularIntervalSet
from repro.errors import ConfigurationError


class TestCircularIntervalSet:
    def test_overlaps_detects(self):
        cis = CircularIntervalSet(20)
        cis.add(5, 5)
        assert cis.overlaps(9, 1)
        assert not cis.overlaps(10, 3)

    def test_free_starts_excludes_blocked(self):
        m = 12
        cis = CircularIntervalSet(m)
        cis.add(4, 3)  # occupies {4,5,6}
        free = set()
        for lo, hi in cis.free_starts(2):
            free.update(range(lo, hi))
        # A run [x, x+2) must avoid {4,5,6}: x not in {3,4,5,6}.
        assert free == set(range(m)) - {3, 4, 5, 6}

    def test_count_free_starts_empty_set(self):
        cis = CircularIntervalSet(10)
        assert cis.count_free_starts(3) == 10

    def test_sample_free_start_valid_and_uniform_support(self):
        def two_arcs():
            cis = CircularIntervalSet(16)
            cis.add(0, 4)
            cis.add(8, 4)
            return cis

        rng = random.Random(0)
        seen = set()
        for _ in range(500):
            start = two_arcs().place(2, rng)
            assert not two_arcs().overlaps(start, 2)
            seen.add(start)
        free = set()
        for lo, hi in two_arcs().free_starts(2):
            free.update(range(lo, hi))
        assert seen == free

    def test_sample_raises_when_full(self):
        cis = CircularIntervalSet(8)
        cis.add(0, 8)
        with pytest.raises(ValueError):
            cis.place(1, random.Random(0))

    def test_no_room_for_long_run(self):
        cis = CircularIntervalSet(10)
        cis.add(0, 5)
        assert cis.count_free_starts(6) == 0

    def test_add_rejects_an_overlapping_arc(self):
        cis = CircularIntervalSet(20)
        cis.add(0, 5)
        cis.add(17, 3)  # ends exactly at m, flush against the arc at 0
        for start, length in ((3, 4), (19, 2), (16, 2), (10, 15)):
            with pytest.raises(ConfigurationError, match="overlaps"):
                cis.add(start, length)
        assert cis.covered() == 8
        assert cis.arcs == [(0, 5), (17, 3)]

    def test_add_rejects_an_arc_longer_than_the_cycle(self):
        cis = CircularIntervalSet(10)
        with pytest.raises(ConfigurationError):
            cis.add(0, 11)
        cis.add(4, 10)
        assert cis.covered() == 10

    def test_run_longer_than_the_cycle_has_no_free_start(self):
        cis = CircularIntervalSet(10)
        assert cis.count_free_starts(10) == 10
        assert cis.count_free_starts(11) == 0
        with pytest.raises(ValueError):
            cis.place(11, random.Random(0))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircularIntervalSet(0)
        cis = CircularIntervalSet(5)
        with pytest.raises(ConfigurationError):
            cis.add(0, 0)
        with pytest.raises(ConfigurationError):
            cis.free_starts(0)
