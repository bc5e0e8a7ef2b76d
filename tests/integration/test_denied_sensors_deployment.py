"""Deployment where every participant denies a sensor: ranking must
degrade gracefully to the features that exist."""

import numpy as np

from repro.core.ranking import MIN, FeaturePreference, PreferenceProfile
from repro.server import SORSystem
from repro.sim.scenarios import shop_feature_pipeline, syracuse_coffee_shops


class TestDeniedSensorDeployment:
    def test_all_phones_deny_microphone(self):
        """Noise data never arrives; the other three features still rank."""
        system = SORSystem(seed=61)
        rng = np.random.default_rng(61)
        for shop in syracuse_coffee_shops(rng):
            system.deploy_place(shop, shop_feature_pipeline())
            for _ in range(4):
                deployed = system.deploy_phone(shop.place_id, budget=10)
                deployed.phone.preferences.deny("microphone")
        system.run()
        system.server.process_data()
        features = system.server.compute_all_features()
        # Every task errored at its first script run (the acquisition of
        # the denied sensor raises), so bursts taken before the failure
        # still uploaded — but no microphone bursts exist anywhere.
        for place_features in features.values():
            assert "noise" not in place_features
        assert system.server.data_processor.features_skipped > 0
        # Ranking on the surviving features still works.
        profile = PreferenceProfile(
            "quiet-agnostic",
            {
                "temperature": FeaturePreference(73.0, 3),
                "brightness": FeaturePreference(MIN, 2),
                "noise": FeaturePreference(MIN, 5),  # no data → excluded
                "wifi": FeaturePreference(66.0, 0),
            },
        )
        report = system.server.ranker.rank("coffee_shop", profile)
        assert len(report.ranking) == 3
        assert "noise" not in report.feature_names

    def test_partial_denial_keeps_full_features(self):
        """If only some phones deny a sensor, the feature still exists."""
        system = SORSystem(seed=62)
        rng = np.random.default_rng(62)
        shop = syracuse_coffee_shops(rng)[0]
        system.deploy_place(shop, shop_feature_pipeline())
        denier = system.deploy_phone(shop.place_id, budget=10)
        denier.phone.preferences.deny("microphone")
        system.deploy_phone(shop.place_id, budget=10)
        system.run()
        system.server.process_data()
        features = system.server.compute_all_features()
        assert "noise" in features[shop.place_id]
