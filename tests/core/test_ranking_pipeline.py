"""Tests for preferences, Γ matrix and individual rankings (Algorithm 2
steps 1–2)."""

import numpy as np
import pytest

from repro.common.errors import RankingError
from repro.core.ranking import (
    MAX,
    MIN,
    FeaturePreference,
    PreferenceProfile,
    individual_rankings,
    preference_distance_matrix,
)


def profile(**prefs):
    return PreferenceProfile(
        "tester", {name: pref for name, pref in prefs.items()}
    )


class TestFeaturePreference:
    def test_weight_range_enforced(self):
        FeaturePreference(1.0, 0)
        FeaturePreference(1.0, 5)
        with pytest.raises(RankingError):
            FeaturePreference(1.0, 6)
        with pytest.raises(RankingError):
            FeaturePreference(1.0, -1)

    def test_non_integer_weight_rejected(self):
        with pytest.raises(RankingError):
            FeaturePreference(1.0, 2.5)  # type: ignore[arg-type]

    def test_sentinel_resolution(self):
        assert FeaturePreference(MAX, 3).resolve(0.0, 9.0) == 9.0
        assert FeaturePreference(MIN, 3).resolve(0.0, 9.0) == 0.0
        assert FeaturePreference(4.2, 3).resolve(0.0, 9.0) == 4.2

    def test_non_numeric_preferred_rejected(self):
        with pytest.raises(RankingError):
            FeaturePreference("hot", 1)  # type: ignore[arg-type]

    @pytest.mark.parametrize("preferred", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_preferred_rejected(self, preferred):
        with pytest.raises(RankingError, match="not finite"):
            FeaturePreference(preferred, 1)


class TestPreferenceProfile:
    def test_lookup(self):
        alice = profile(temperature=FeaturePreference(73.0, 2))
        assert alice.weight("temperature") == 2
        assert alice.preference("temperature").preferred == 73.0

    def test_unknown_feature_rejected(self):
        alice = profile(temperature=FeaturePreference(73.0, 2))
        with pytest.raises(RankingError):
            alice.weight("noise")

    def test_covers(self):
        alice = profile(
            a=FeaturePreference(1.0, 1), b=FeaturePreference(2.0, 2)
        )
        assert alice.covers(["a", "b"])
        assert not alice.covers(["a", "z"])

    def test_empty_profile_rejected(self):
        with pytest.raises(RankingError):
            PreferenceProfile("nobody", {})


class TestGammaMatrix:
    def test_absolute_distance(self):
        H = np.array([[70.0], [76.0]])
        gamma = preference_distance_matrix(
            H, ["temperature"], profile(temperature=FeaturePreference(73.0, 1))
        )
        np.testing.assert_allclose(gamma, [[3.0], [3.0]])

    def test_max_sentinel_prefers_largest(self):
        H = np.array([[1.0], [5.0], [3.0]])
        gamma = preference_distance_matrix(
            H, ["wifi"], profile(wifi=FeaturePreference(MAX, 1))
        )
        np.testing.assert_allclose(gamma.ravel(), [4.0, 0.0, 2.0])

    def test_min_sentinel_prefers_smallest(self):
        H = np.array([[1.0], [5.0]])
        gamma = preference_distance_matrix(
            H, ["noise"], profile(noise=FeaturePreference(MIN, 1))
        )
        np.testing.assert_allclose(gamma.ravel(), [0.0, 4.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(RankingError):
            preference_distance_matrix(
                np.zeros((2, 2)), ["only-one"], profile(x=FeaturePreference(1.0, 1))
            )

    def test_1d_matrix_rejected(self):
        with pytest.raises(RankingError):
            preference_distance_matrix(
                np.zeros(3), ["f"], profile(f=FeaturePreference(1.0, 1))
            )


class TestIndividualRankings:
    def test_sorted_per_column_ascending(self):
        gamma = np.array(
            [
                [2.0, 0.0],
                [0.0, 1.0],
                [1.0, 2.0],
            ]
        )
        rankings = individual_rankings(gamma, ["p0", "p1", "p2"])
        assert rankings[0].items == ("p1", "p2", "p0")
        assert rankings[1].items == ("p0", "p1", "p2")

    def test_ties_stable_by_place_order(self):
        gamma = np.array([[1.0], [1.0], [0.0]])
        ranking = individual_rankings(gamma, ["x", "y", "z"])[0]
        assert ranking.items == ("z", "x", "y")

    def test_row_mismatch_rejected(self):
        with pytest.raises(RankingError):
            individual_rankings(np.zeros((2, 1)), ["only-one"])


class TestFiniteValidation:
    def test_nan_in_feature_matrix_names_place_and_feature(self):
        H = np.array([[70.0, 40.0], [float("nan"), 30.0]])
        with pytest.raises(RankingError, match=r"'p2'.*'temperature'"):
            preference_distance_matrix(
                H,
                ["temperature", "noise"],
                profile(
                    temperature=FeaturePreference(70.0, 3),
                    noise=FeaturePreference(MIN, 1),
                ),
                place_ids=["p1", "p2"],
            )

    def test_inf_rejected_without_labels(self):
        H = np.array([[float("inf")], [1.0]])
        with pytest.raises(RankingError, match="row 0.*'noise'"):
            preference_distance_matrix(
                H, ["noise"], profile(noise=FeaturePreference(MIN, 1))
            )

    def test_nan_gamma_rejected_in_individual_rankings(self):
        gamma = np.array([[0.0], [float("nan")]])
        with pytest.raises(RankingError, match="'p1'"):
            individual_rankings(gamma, ["p0", "p1"])

    def test_require_finite_features_passes_clean_matrix(self):
        from repro.core.ranking import require_finite_features

        require_finite_features(np.array([[1.0, 2.0]]), ["a", "b"], ["p"])
