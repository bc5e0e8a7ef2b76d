"""The ranker's reports equal Algorithm 2 run step by step on plain rankings.

:class:`PersonalizableRanker` ranks a cache miss from its category scan:
individual rankings kept over the scan's place order, the array kernel
and, when one weight dominates, no assignment solve. The oracle here is
the pipeline written out with the public steps and the scalar specs:
:func:`preference_distance_matrix` and :func:`individual_rankings` give
plain :class:`Ranking` objects (positions by lookup), the scalar
reference cost matrix is solved with ``linear_sum_assignment`` every
time, and the weighted distances are ``Σ w · d`` over the pairwise
specs. Generated scans cover 2–32 places, tied feature values,
numeric (unmemoized) preferred values, feature subsets and 1–3
features; every report must match field for field, value types
included.

Run with ``--hypothesis-seed=0`` in CI for reproducibility.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from repro.core.ranking import (
    MAX,
    MIN,
    Ranking,
    individual_rankings,
    preference_distance_matrix,
)
from repro.core.ranking.distances import footrule_distance, kemeny_distance
from repro.core.ranking.reference import footrule_cost_matrix_reference
from repro.obs import MetricsRegistry
from repro.server.ranker_service import PersonalizableRanker
from tests.server.test_scan_reuse import CATEGORY, make_profile, new_database, write_rows

FEATURES = ("noise", "occupancy", "wifi")


def pipeline(values, profile):
    """Algorithm 2 on plain rankings: (places, footrule, kemeny, individual)."""
    place_ids = list(values)
    common = sorted(set.intersection(*(set(row) for row in values.values())))
    names = [feature for feature in common if profile.effective_weight(feature) > 0]
    matrix = np.array([[values[place][f] for f in names] for place in place_ids])
    gamma = preference_distance_matrix(matrix, names, profile, place_ids=place_ids)
    individual = individual_rankings(gamma, place_ids)
    weights = [profile.weight(feature) for feature in names]
    cost, items = footrule_cost_matrix_reference(individual, weights)
    _, columns = linear_sum_assignment(cost)
    ranking = Ranking(items[row] for row in np.argsort(columns))
    footrule = sum(
        weight * footrule_distance(ranking, other)
        for other, weight in zip(individual, weights)
    )
    kemeny = sum(
        weight * kemeny_distance(ranking, other)
        for other, weight in zip(individual, weights)
    )
    return ranking.items, footrule, kemeny, [other.items for other in individual]


@st.composite
def scans(draw):
    """``(rows, profiles)``: a category's feature rows and 1–3 profiles."""
    count = draw(st.integers(min_value=2, max_value=32))
    features = draw(
        st.lists(st.sampled_from(FEATURES), min_size=1, max_size=3, unique=True)
    )
    # A few distinct values make ties likely; wide floats make them rare.
    value = draw(
        st.sampled_from(
            [
                st.sampled_from([0.0, 1.0, 2.5, 40.0]),
                st.floats(min_value=0.0, max_value=100.0),
            ]
        )
    )
    rows = {
        f"place-{index}": {feature: draw(value) for feature in features}
        for index in range(count)
    }
    preferred = st.one_of(
        st.sampled_from([MAX, MIN]),
        st.sampled_from([0.0, 1.0, 2.5, 40.0]),
        st.floats(min_value=-10.0, max_value=110.0),
    )
    profile = st.dictionaries(
        st.sampled_from(features),
        st.tuples(preferred, st.integers(min_value=0, max_value=5)),
        min_size=1,
    ).filter(lambda prefs: any(weight > 0 for _, weight in prefs.values()))
    profiles = draw(st.lists(profile, min_size=1, max_size=3))
    return rows, profiles


@given(case=scans())
@settings(max_examples=120, deadline=None)
def test_reports_equal_the_plain_ranking_pipeline(case):
    rows, prefs = case
    database = new_database()
    write_rows(database, rows)
    ranker = PersonalizableRanker(database, metrics=MetricsRegistry())
    profiles = [make_profile(f"user-{index}", p) for index, p in enumerate(prefs)]
    reports = ranker.rank_many(CATEGORY, profiles)
    for profile in profiles:
        report = reports[profile.name]
        places, footrule, kemeny, individual = pipeline(rows, profile)
        assert report.ranking.items == places
        assert [ranking.items for ranking in report.individual] == individual
        assert report.weighted_footrule == footrule
        assert type(report.weighted_footrule) is type(footrule)
        assert report.weighted_kemeny == kemeny
        assert type(report.weighted_kemeny) is type(kemeny)
