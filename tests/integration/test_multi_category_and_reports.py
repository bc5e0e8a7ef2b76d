"""Multi-category deployments, report explanations, budget updates."""

import numpy as np
import pytest

from repro.server import SORSystem
from repro.server.reports import explain_report
from repro.sim.scenarios import (
    customer_profiles,
    hiker_profiles,
    shop_feature_pipeline,
    syracuse_coffee_shops,
    syracuse_trails,
    trail_feature_pipeline,
)


@pytest.fixture(scope="module")
def dual_system():
    """One server handling BOTH categories at once (paper: 'SOR can
    certainly deal with multiple categories by using multiple such
    matrices')."""
    system = SORSystem(seed=21)
    rng = np.random.default_rng(21)
    for shop in syracuse_coffee_shops(rng):
        system.deploy_place(shop, shop_feature_pipeline())
        for _ in range(5):
            system.deploy_phone(shop.place_id, budget=15)
    for trail in syracuse_trails(rng):
        system.deploy_place(trail, trail_feature_pipeline())
        for _ in range(5):
            system.deploy_phone(trail.place_id, budget=30)
    system.run()
    system.server.process_data()
    system.server.compute_all_features()
    return system


class TestMultiCategory:
    def test_both_categories_have_feature_data(self, dual_system):
        assert len(dual_system.feature_values("coffee_shop")) == 3
        assert len(dual_system.feature_values("hiking_trail")) == 3

    def test_categories_ranked_independently(self, dual_system):
        shop_report = dual_system.server.ranker.rank(
            "coffee_shop", customer_profiles()[0]
        )
        trail_report = dual_system.server.ranker.rank(
            "hiking_trail", hiker_profiles()[0]
        )
        assert set(shop_report.place_ids).isdisjoint(trail_report.place_ids)
        assert len(shop_report.ranking) == 3
        assert len(trail_report.ranking) == 3

    def test_shop_rankings_unpolluted_by_trails(self, dual_system):
        names = {pid: d.place.name for pid, d in dual_system.places.items()}
        emma = next(p for p in customer_profiles() if p.name == "Emma")
        report = dual_system.server.ranker.rank("coffee_shop", emma)
        assert [names[p] for p in report.ranking.items] == [
            "B&N Cafe", "Tim Hortons", "Starbucks",
        ]


class TestExplanations:
    def test_explanation_contains_all_sections(self, dual_system):
        emma = next(p for p in customer_profiles() if p.name == "Emma")
        report = dual_system.server.ranker.rank("coffee_shop", emma)
        names = {pid: d.place.name for pid, d in dual_system.places.items()}
        text = explain_report(emma.name, report, place_names=names)
        assert "Ranking for Emma" in text
        assert "Individual rankings" in text
        assert "Why each place landed where it did" in text
        assert "B&N Cafe" in text
        assert "weighted footrule" in text

    def test_explanation_mentions_pulls(self, dual_system):
        alice = next(p for p in hiker_profiles() if p.name == "Alice")
        report = dual_system.server.ranker.rank("hiking_trail", alice)
        text = explain_report(alice.name, report)
        # Alice's features are unanimous, so every place agrees.
        assert "every feature agrees" in text


class TestRuntimeBudgetUpdate:
    def test_budget_decremented_after_upload(self, dual_system):
        """The paper: the sensing budget 'is updated at runtime'."""
        tasks = dual_system.server.database.table("tasks").select()
        finished = [task for task in tasks if task["status"] == "finished"]
        assert finished, "expected finished tasks"
        # Phones executed their full schedules, so budgets dropped to
        # (initial - executed); with full execution that reaches 0.
        assert all(task["budget"] >= 0 for task in finished)
        assert any(task["budget"] == 0 for task in finished)
