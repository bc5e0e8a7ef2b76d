#!/usr/bin/env python3
"""Extend SOR: a new place category, a new sensor, a custom profile.

The paper's architecture claims ("its architecture is so scalable that
various embedded and external sensors can be easily integrated"): adding
a sensor takes one Provider; adding a category takes one feature
pipeline. This example ranks three *libraries* using a CO₂ gas sensor
(a Sensordrone channel the built-in scenarios don't use) plus noise:

* defines PlaceProfiles for three libraries with CO₂/noise ground truth,
* deploys them through the full SORSystem (barcodes, scripts, HTTP),
* ranks them for a user who wants fresh air and silence.

Run:  python examples/custom_deployment.py
"""

import numpy as np

from repro.common.geo import LatLon
from repro.core.features import FeaturePipeline, FeatureSpec, MeanExtractor
from repro.core.ranking import MIN, FeaturePreference, PreferenceProfile
from repro.server import SORSystem
from repro.server.visualization import bar_chart, feature_table
from repro.sim.environment import CrowdNoiseSignal, OrnsteinUhlenbeckSignal
from repro.sim.places import PlaceProfile

LIBRARIES = [
    # (id, name, co2 ppm, noise dB, bursts/h)
    ("bird-library", "Bird Library", 650.0, 45.0, 1.0),
    ("carnegie-reading-room", "Carnegie Reading Room", 480.0, 40.0, 0.3),
    ("sci-tech-library", "Sci-Tech Library", 900.0, 52.0, 4.0),
]


def build_places(rng: np.random.Generator) -> list[PlaceProfile]:
    places = []
    for index, (place_id, name, co2, noise, bursts) in enumerate(LIBRARIES):
        places.append(
            PlaceProfile(
                place_id=place_id,
                name=name,
                category="library",
                location=LatLon(43.037 + index * 0.002, -76.135),
                signals={
                    "gas_co": OrnsteinUhlenbeckSignal(
                        mean=co2, reversion_rate=1 / 600.0, volatility=0.2, rng=rng
                    ),
                    "microphone": CrowdNoiseSignal(
                        base_level=noise, burst_gain=6.0, rng=rng,
                        bursts_per_hour=bursts,
                    ),
                },
                surface_roughness=0.01,
            )
        )
    return places


def main() -> None:
    # A brand-new category needs only a feature pipeline: which sensors
    # feed which humanly understandable features.
    pipeline = FeaturePipeline(
        [
            FeatureSpec("air_quality_co2", "gas_co", MeanExtractor()),
            FeatureSpec("noise", "microphone", MeanExtractor()),
        ]
    )

    system = SORSystem(seed=7)
    rng = np.random.default_rng(7)
    for place in build_places(rng):
        system.deploy_place(place, pipeline)
        for _ in range(5):
            system.deploy_phone(place.place_id, budget=20)

    print("Running the library deployment...")
    system.run()

    # A user who wants fresh air above all, then silence.
    scholar = PreferenceProfile(
        "Scholar",
        {
            "air_quality_co2": FeaturePreference(MIN, 5),
            "noise": FeaturePreference(MIN, 3),
        },
    )
    reports = system.process_and_rank("library", [scholar])
    names = {pid: d.place.name for pid, d in system.places.items()}

    features = {
        names[pid]: values
        for pid, values in system.feature_values("library").items()
    }
    print()
    print(feature_table(features, pipeline.feature_names))
    print()
    print(bar_chart(
        "CO2 (ppm, lower is better)",
        {name: values["air_quality_co2"] for name, values in features.items()},
    ))
    report = reports[scholar.name]
    print(f"\nRanking for {scholar.name}:")
    for rank, place_id in enumerate(report.ranking.items, start=1):
        print(f"  {rank}. {names[place_id]}")
    print(f"\n(weighted footrule distance of the aggregate: "
          f"{report.weighted_footrule:.1f}, "
          f"weighted Kemeny: {report.weighted_kemeny:.1f})")


if __name__ == "__main__":
    main()
