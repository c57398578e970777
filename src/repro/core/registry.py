"""Name-based registry of ID-generation algorithms.

Experiments, the CLI, ``Options.id_algorithm`` and the benchmarks refer
to algorithms by a *spec*: a name, then one ``:``-separated integer per
parameter of that algorithm:

========  =======================  ==============================
spec      class                    parameters
========  =======================  ==============================
random    RandomGenerator          —
cluster   ClusterGenerator         —
bins:K    BinsGenerator            bin size ``K``
cluster*  ClusterStarGenerator     —  (alias: cluster_star)
bins*     BinsStarGenerator        —  (alias: bins_star)
skew:I:J  SkewAwareGenerator       target profile ``(I, J)``
========  =======================  ==============================

Names are case-insensitive, and ``*`` stands for ``_star``.
:func:`parse_spec` is the one reader of this grammar; the generator
factory, the exact formulas and the NumPy planner all call it. It
raises :class:`~repro.errors.ConfigurationError` for an unknown name, a
parameter that is not an integer, or a parameter count other than the
table's (``"bins"`` fails with "bins takes bins:K").
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.base import IDGenerator
from repro.core.bins import BinsGenerator
from repro.core.bins_star import BinsStarGenerator
from repro.core.cluster import ClusterGenerator
from repro.core.cluster_star import ClusterStarGenerator
from repro.core.random_gen import RandomGenerator
from repro.core.skew_aware import SkewAwareGenerator
from repro.errors import ConfigurationError

GeneratorFactory = Callable[..., IDGenerator]

#: name -> (factory, the names of the spec's integer parameters)
_REGISTRY: Dict[str, Tuple[GeneratorFactory, Tuple[str, ...]]] = {}


def register(
    name: str, factory: GeneratorFactory, params: Sequence[str] = ()
) -> None:
    """Register ``factory`` under ``name`` (lowercase, no colons).

    ``params`` names the integers a spec gives after the name, in the
    order ``factory`` takes them after ``m``.
    """
    if ":" in name:
        raise ConfigurationError(f"algorithm name may not contain ':': {name}")
    _REGISTRY[name.lower()] = (factory, tuple(params))


def available_algorithms() -> List[str]:
    """Sorted list of registered algorithm names."""
    return sorted(_REGISTRY)


def parse_spec(spec: str) -> Tuple[str, Tuple[int, ...]]:
    """Split a spec into its registered name and integer parameters.

    ``"Bins:16"`` gives ``("bins", (16,))`` and ``"cluster*"`` gives
    ``("cluster_star", ())``.
    """
    head, *fields = spec.strip().lower().split(":")
    name = head.replace("*", "_star")
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown algorithm {head!r}; available: "
            f"{', '.join(available_algorithms())}"
        )
    params = _REGISTRY[name][1]
    if len(fields) != len(params):
        usage = ":".join((name, *params)) if params else "no parameters"
        raise ConfigurationError(f"{name} takes {usage}, not {spec!r}")
    try:
        return name, tuple(int(field) for field in fields)
    except ValueError as exc:
        raise ConfigurationError(
            f"non-integer parameter in spec {spec!r}"
        ) from exc


def make_generator(
    spec: str, m: int, rng: Optional[random.Random] = None
) -> IDGenerator:
    """Instantiate a generator from a spec string like ``"bins:16"``."""
    name, args = parse_spec(spec)
    return _REGISTRY[name][0](m, *args, rng=rng)


register("random", RandomGenerator)
register("cluster", ClusterGenerator)
register("bins", BinsGenerator, ("K",))
register("cluster_star", ClusterStarGenerator)
register("bins_star", BinsStarGenerator)
register("skew", SkewAwareGenerator, ("I", "J"))
