"""Adversaries, demand profiles, and attacks for the UUIDP game (§2, §6, §9)."""

from repro.adversary.adaptive import AdaptiveAdversary, circular_gap
from repro.adversary.attacks import (
    ClosestPairAttack,
    GreedyGapAttack,
    RunSaturationAttack,
    closest_trailing_pair,
)
from repro.adversary.base import (
    NEW_INSTANCE,
    Adversary,
    GameView,
    ObliviousAdversary,
)
from repro.adversary.phi import PhiDistribution, WeightedProfile
from repro.adversary.profiles import (
    DemandProfile,
    ProfileFamily,
    count_profiles_d1,
    family_d1,
    family_dinf,
    is_epsilon_good,
    sample_profile_d1,
    zipf_profile,
)
from repro.adversary.semi_adaptive import DemandSequence, FollowerAdversary

__all__ = [
    "Adversary",
    "GameView",
    "ObliviousAdversary",
    "AdaptiveAdversary",
    "NEW_INSTANCE",
    "circular_gap",
    "ClosestPairAttack",
    "GreedyGapAttack",
    "RunSaturationAttack",
    "closest_trailing_pair",
    "DemandProfile",
    "ProfileFamily",
    "family_d1",
    "family_dinf",
    "sample_profile_d1",
    "count_profiles_d1",
    "is_epsilon_good",
    "zipf_profile",
    "PhiDistribution",
    "WeightedProfile",
    "DemandSequence",
    "FollowerAdversary",
]
