"""Abstract interface for UUIDP ID-generation algorithms.

The paper models an algorithm ``A`` as a distribution over permutations
of the universe ``[m]``: each instance reveals a uniformly-chosen-by-``A``
permutation one element at a time, with no knowledge of other instances.

This module fixes the concrete contract:

* the universe is ``range(m)`` (0-based; the paper's ``{1..m}`` shifted
  by one, which changes no probability),
* :meth:`IDGenerator.next_id` returns the next element of the permutation,
* within one instance, IDs never repeat (enforced and tested),
* once an instance cannot honour its schedule it raises
  :class:`~repro.errors.IDSpaceExhaustedError`.

``m`` may be an arbitrary-precision integer (``2**128`` works).
"""

from __future__ import annotations

import abc
import random
from typing import List, Optional

from repro.errors import ConfigurationError, IDSpaceExhaustedError


class IDGenerator(abc.ABC):
    """One uncoordinated instance of an ID-generation algorithm.

    Parameters
    ----------
    m:
        Size of the ID universe; IDs are drawn from ``range(m)``.
    rng:
        Source of randomness. Pass an explicitly seeded
        :class:`random.Random` for reproducibility; defaults to a fresh
        unseeded one.
    """

    #: Registry name; subclasses override (e.g. ``"cluster"``).
    name: str = "abstract"

    def __init__(self, m: int, rng: Optional[random.Random] = None):
        if m < 1:
            raise ConfigurationError(f"universe size m must be >= 1, got {m}")
        self.m = m
        self.rng = rng if rng is not None else random.Random()
        self._count = 0

    @property
    def count(self) -> int:
        """Number of IDs produced so far by this instance."""
        return self._count

    def next_id(self) -> int:
        """Produce the next ID of this instance's random permutation."""
        if self._count >= self.m:
            raise IDSpaceExhaustedError(
                f"{self.name}: all {self.m} IDs produced", produced=self._count
            )
        value = self._generate()
        self._count += 1
        return value

    def take(self, count: int) -> List[int]:
        """Produce ``count`` IDs (convenience wrapper around ``next_id``)."""
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        return [self.next_id() for _ in range(count)]

    def generate_batch(self, count: int) -> List[int]:
        """Produce up to ``count`` IDs as one vector.

        The returned list is exactly what ``count`` repeated
        :meth:`next_id` calls would have produced — same values, same
        order, same randomness consumption — so batched and serial
        callers are interchangeable bit for bit.

        Exhaustion mid-batch is not an error: the IDs produced before
        the instance ran out are returned, and callers detect the
        condition as ``len(result) < count``. A subsequent ``next_id``
        (or ``generate_batch``) raises (respectively returns ``[]``)
        just as the serial path would.

        Subclasses override this with vectorized fast paths; the
        default simply drives :meth:`next_id`.
        """
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        out: List[int] = []
        append = out.append
        for _ in range(count):
            try:
                append(self.next_id())
            except IDSpaceExhaustedError:
                break
        return out

    @abc.abstractmethod
    def _generate(self) -> int:
        """Return the next ID. ``self._count`` IDs were already produced."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(m={self.m}, produced={self._count})"
