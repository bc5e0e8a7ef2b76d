"""Human-readable explanations of ranking reports.

A recommendation is only trustworthy if it can say *why*: this module
renders a :class:`~repro.server.ranker_service.RankingReport` as text —
the feature matrix, each feature's individual ranking with its weight,
and, per place, which features pulled it up or down relative to its
final rank.
"""

from __future__ import annotations

from repro.server.ranker_service import RankingReport


def explain_report(
    profile_name: str, report: RankingReport, *, place_names: dict | None = None
) -> str:
    """Render a full explanation of ``report``, ranked for ``profile_name``.

    ``place_names`` optionally maps place ids to display names.
    """
    names = place_names or {}

    def label(place_id) -> str:
        return str(names.get(place_id, place_id))

    lines = [
        f"Ranking for {profile_name} ({report.category})",
        "=" * 50,
    ]
    for rank, place_id in enumerate(report.ranking.items, start=1):
        lines.append(f"{rank}. {label(place_id)}")
    lines.append("")
    lines.append("Individual rankings (feature → weight → order):")
    for feature, weight, ranking in zip(
        report.feature_names, report.weights, report.individual
    ):
        order = " > ".join(label(place_id) for place_id in ranking.items)
        lines.append(f"  {feature:<18} w{weight}  {order}")
    lines.append("")
    lines.append("Why each place landed where it did:")
    for final_rank, place_id in enumerate(report.ranking.items, start=1):
        pulls = []
        for feature, weight, ranking in zip(
            report.feature_names, report.weights, report.individual
        ):
            individual_rank = ranking.position(place_id)
            displacement = individual_rank - final_rank
            if displacement < 0:
                direction = "pulled it up"
            elif displacement > 0:
                direction = "pushed it down"
            else:
                continue
            pulls.append(
                f"{feature} (rank {individual_rank}, w{weight}) {direction}"
            )
        detail = "; ".join(pulls) if pulls else "every feature agrees with this rank"
        lines.append(f"  #{final_rank} {label(place_id)}: {detail}")
    lines.append("")
    lines.append(
        f"aggregate quality: weighted footrule {report.weighted_footrule:.1f}, "
        f"weighted Kemeny {report.weighted_kemeny:.1f} "
        "(lower = closer to every individual ranking)"
    )
    return "\n".join(lines)
