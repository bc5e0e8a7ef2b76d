"""User preference profiles (the paper's U and W vectors).

A user states, per feature, the value they prefer and a weight in
``{0, 1, 2, 3, 4, 5}`` ("0" = doesn't care, "5" = really cares) —
exactly the hiker/customer profiles of Figures 7 and 11. Features that
are always better larger (Wi-Fi strength) or smaller (noise) use the
``MAX``/``MIN`` sentinels; the paper configures "a very large (small)
default value" for these, which orders places identically to resolving
the sentinel against the observed column extremum, as we do.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass
from typing import Mapping

from repro.common.errors import RankingError


class _Sentinel(enum.Enum):
    MAX = "max"
    MIN = "min"


MAX = _Sentinel.MAX
MIN = _Sentinel.MIN

PreferredValue = float | _Sentinel

MAX_WEIGHT = 5


@dataclass(frozen=True)
class FeaturePreference:
    """One feature's preferred value and emphasis weight."""

    preferred: PreferredValue
    weight: int

    def __post_init__(self) -> None:
        if not isinstance(self.weight, int) or not 0 <= self.weight <= MAX_WEIGHT:
            raise RankingError(
                f"weight must be an integer in [0, {MAX_WEIGHT}], got {self.weight!r}"
            )
        if isinstance(self.preferred, _Sentinel):
            return
        if not isinstance(self.preferred, (int, float)):
            raise RankingError(f"preferred value {self.preferred!r} is not numeric")
        # A NaN or infinite target makes every γ NaN or inf, and argsort
        # would quietly return place order as the "ranking".
        if not math.isfinite(self.preferred):
            raise RankingError(f"preferred value {self.preferred!r} is not finite")

    def resolve(self, column_min: float, column_max: float) -> float:
        """The concrete preferred value given the observed feature range."""
        if self.preferred is MAX:
            return column_max
        if self.preferred is MIN:
            return column_min
        return float(self.preferred)


class PreferenceProfile:
    """A named user's preferences over a feature set.

    >>> alice = PreferenceProfile("Alice", {
    ...     "roughness": FeaturePreference(MAX, 5),
    ...     "temperature": FeaturePreference(73.0, 2),
    ... })
    >>> alice.weight("roughness")
    5
    """

    def __init__(
        self, name: str, preferences: Mapping[str, FeaturePreference]
    ) -> None:
        if not preferences:
            raise RankingError("preference profile must cover at least one feature")
        self.name = name
        self._preferences = dict(preferences)

    @property
    def feature_names(self) -> list[str]:
        return list(self._preferences)

    def preference(self, feature: str) -> FeaturePreference:
        """The stated preference for ``feature`` (raises if absent)."""
        try:
            return self._preferences[feature]
        except KeyError:
            raise RankingError(
                f"profile {self.name!r} has no preference for feature {feature!r}"
            ) from None

    def weight(self, feature: str) -> int:
        """The emphasis weight (0-5) for ``feature``."""
        return self.preference(feature).weight

    def effective_weight(self, feature: str) -> int:
        """The weight for ``feature``, with uncovered features as 0.

        The paper's scale makes 0 mean "doesn't care"; a feature the
        user never mentioned carries exactly that meaning, so ranking
        paths use this instead of :meth:`weight` wherever the feature
        set comes from the sensed data rather than from the profile.
        """
        preference = self._preferences.get(feature)
        return preference.weight if preference is not None else 0

    def covers(self, features: list[str]) -> bool:
        """Whether the profile states a preference for every feature."""
        return all(feature in self._preferences for feature in features)

    def fingerprint(self) -> str:
        """A stable content hash of the profile's preferences.

        Computed over the sorted ``(feature, preferred, weight)``
        triples — two profiles with equal preferences fingerprint
        identically regardless of name or insertion order, so the
        ranking cache can key on it.
        """
        digest = hashlib.sha256()
        for feature in sorted(self._preferences):
            preference = self._preferences[feature]
            preferred = preference.preferred
            token = (
                preferred.value
                if isinstance(preferred, _Sentinel)
                else repr(float(preferred))
            )
            digest.update(
                f"{feature}\x00{token}\x00{preference.weight}\x1f".encode()
            )
        return digest.hexdigest()[:32]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PreferenceProfile({self.name!r}, {self._preferences!r})"
