"""Output checks, run on every round after its timed window.

* every schedule has at most ``budget`` distinct instants, all inside
  the phone's window ``[0, departure]`` of the sensing period;
* every ranking reply's ``weighted_footrule`` equals an independent
  optimum — scipy's ``linear_sum_assignment`` over
  ``footrule_cost_matrix`` of the same individual rankings — to 1e-9
  relative, and the returned order attains that cost. Checking the cost
  rather than the order keeps the check valid for any exact solver.

Pull replays and error replies are checked inline by the driver.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.core.ranking import Ranking, footrule_cost_matrix

from sorbench.workloads import PhoneSession, Plan, RankRequest

RELATIVE_TOLERANCE = 1e-9


def check_schedule(phone: PhoneSession, payload: dict[str, Any], period_s: float) -> str | None:
    """Why a SCHEDULE reply is wrong, or ``None`` when it is right."""
    times = payload.get("times")
    if not isinstance(times, list):
        return "schedule without times"
    if len(set(times)) != len(times) or len(times) > phone.budget:
        return f"{len(times)} times for budget {phone.budget}"
    end = min(phone.departure_time, period_s)
    outside = [t for t in times if not 0.0 <= t <= end + 1e-6]
    if outside:
        return f"times {outside[:3]} outside the window [0, {end}]"
    return None


class RankingOracle:
    """Independent footrule optima for the plan's (category, profile) keys."""

    def __init__(self, plan: Plan) -> None:
        self._features = plan.features
        self._memo: dict[tuple[str, str], tuple[float, np.ndarray, dict[str, int]]] = {}

    def optimum(self, query: RankRequest) -> tuple[float, np.ndarray, dict[str, int]]:
        """(optimal cost, cost matrix, place -> matrix row) for ``query``."""
        key = (query.category, query.profile["name"])
        entry = self._memo.get(key)
        if entry is None:
            entry = self._solve(query)
            self._memo[key] = entry
        return entry

    def _solve(self, query: RankRequest) -> tuple[float, np.ndarray, dict[str, int]]:
        places = self._features[query.category]
        place_ids = sorted(places)
        rankings, weights = [], []
        for feature, preference in sorted(query.profile["preferences"].items()):
            column = np.array([places[place][feature] for place in place_ids])
            preferred = preference["preferred"]
            target = (
                column.max() if preferred == "max"
                else column.min() if preferred == "min"
                else float(preferred)
            )
            order = np.argsort(np.abs(column - target), kind="stable")
            rankings.append(Ranking(place_ids[index] for index in order))
            weights.append(preference["weight"])
        cost, items = footrule_cost_matrix(rankings, weights)
        rows, cols = linear_sum_assignment(cost)
        return float(cost[rows, cols].sum()), cost, {item: i for i, item in enumerate(items)}

    def check(self, query: RankRequest, payload: dict[str, Any]) -> str | None:
        """Why a RANKING reply is wrong, or ``None`` when it is right."""
        entries = payload.get("rankings")
        if payload.get("category") != query.category or not isinstance(entries, list):
            return "ranking reply for the wrong category"
        if len(entries) != 1 or entries[0].get("profile") != query.profile["name"]:
            return "ranking reply for the wrong profiles"
        entry = entries[0]
        optimum, cost, row_of = self.optimum(query)
        places = entry.get("places")
        if not isinstance(places, list) or sorted(places) != sorted(row_of):
            return "ranking is not a permutation of the category's places"
        attained = float(sum(cost[row_of[place], rank] for rank, place in enumerate(places)))
        reported = float(entry.get("weighted_footrule", float("nan")))
        scale = max(1.0, abs(optimum))
        if abs(reported - optimum) > RELATIVE_TOLERANCE * scale:
            return f"weighted_footrule {reported} != optimum {optimum}"
        if abs(attained - optimum) > RELATIVE_TOLERANCE * scale:
            return f"order costs {attained}, optimum is {optimum}"
        kemeny = float(entry.get("weighted_kemeny", float("nan")))
        # Diaconis-Graham: d_K <= d_f <= 2 d_K, so the weighted sums too.
        if not kemeny <= reported + 1e-9 or not reported <= 2 * kemeny + 1e-9:
            return f"weighted_kemeny {kemeny} inconsistent with footrule {reported}"
        return None
