"""The Personalizable Ranker service.

Reads feature data for all places of a category from the database,
assembles the paper's H matrix, and runs Algorithm 2 (Γ → individual
rankings → weighted footrule aggregation as a min-cost assignment) for
a user's preference profile.

Serving-path additions on top of the paper:

* **Versioned ranking cache.** Every category carries a durable,
  monotonically increasing ``data_version`` (the ``ranking_versions``
  table) that the Data Processor bumps whenever it writes
  ``feature_data``. A size-bounded LRU :class:`RankingCache` keys
  finished :class:`RankingReport` objects by ``(category, data_version,
  profile fingerprint)`` — the fingerprint is a stable hash over the
  profile's sorted ``(feature, preferred, weight)`` triples — so
  serving the same profile over unchanged sensed data is a dictionary
  lookup, and any feature write invalidates every cached ranking of
  its category. Because the version is persisted through the database
  (and thus the WAL), a restarted server can never serve stale results.

* **Scan reuse.** A ranker keeps the newest :class:`_CategoryScan` of
  each category: the ``feature_data`` rows, the H matrix over the
  common features and the MAX/MIN individual rankings. Every cache
  miss at the same ``data_version`` ranks from that scan, and a new one
  is built only when the version moves. That is sound because every
  change to a category's rows bumps its version in the same
  transaction, under the server's exclusive lock. The scan's arrays are
  read-only, since reports of many profiles and requests share them,
  and what it memoizes is bounded by the category's data, never by
  what clients send.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Mapping

import numpy as np

from repro.common.errors import RankingError
from repro.core.ranking import (
    MAX,
    MIN,
    FeaturePreference,
    PreferenceProfile,
    Ranking,
    aggregate_footrule,
    require_finite_features,
    weighted_footrule_distance,
    weighted_kemeny_distance,
)
from repro.db import Database, eq
from repro.net.messages import Envelope, MessageType
from repro.obs import MetricsRegistry, Tracer, get_metrics, get_tracer
from repro.server.schemas import RANKING_VERSIONS


# ----------------------------------------------------------------------
# durable per-category data versions
# ----------------------------------------------------------------------
def get_data_version(database: Database, category: str) -> int:
    """The category's current feature-data version (0 = never written)."""
    if not database.has_table(RANKING_VERSIONS.name):
        return 0
    row = database.table(RANKING_VERSIONS.name).get(category)
    return int(row["data_version"]) if row is not None else 0


def bump_data_version(database: Database, category: str) -> int:
    """Increment (and persist) the category's version; returns the new one.

    Called by the Data Processor after every ``feature_data`` write so
    cached rankings keyed on the old version can never be served again.
    """
    if not database.has_table(RANKING_VERSIONS.name):
        database.create_table(RANKING_VERSIONS)
    table = database.table(RANKING_VERSIONS.name)
    row = table.get(category)
    if row is None:
        table.insert({"category": category, "data_version": 1})
        return 1
    version = int(row["data_version"]) + 1
    table.update(eq("category", category), {"data_version": version})
    return version


# ----------------------------------------------------------------------
# wire form of preference profiles (the rank_query payload)
# ----------------------------------------------------------------------
def profile_to_dict(profile: PreferenceProfile) -> dict[str, Any]:
    """Encode a profile for a ``rank_query`` envelope payload."""
    preferences: dict[str, Any] = {}
    for feature in profile.feature_names:
        preference = profile.preference(feature)
        preferred: Any = preference.preferred
        if preferred is MAX:
            preferred = "max"
        elif preferred is MIN:
            preferred = "min"
        else:
            preferred = float(preferred)
        preferences[feature] = {
            "preferred": preferred,
            "weight": preference.weight,
        }
    return {"name": profile.name, "preferences": preferences}


def profile_from_dict(data: Mapping[str, Any]) -> PreferenceProfile:
    """Decode a ``rank_query`` payload entry back into a profile.

    Raises :class:`RankingError` on any shape problem so the endpoint
    can turn it into a clean ERROR reply.
    """
    if not isinstance(data, Mapping):
        raise RankingError("profile entry must be a mapping")
    name = data.get("name")
    raw = data.get("preferences")
    if not isinstance(name, str) or not isinstance(raw, Mapping) or not raw:
        raise RankingError("profile needs a name and a preferences mapping")
    preferences: dict[str, FeaturePreference] = {}
    for feature, entry in raw.items():
        if not isinstance(entry, Mapping):
            raise RankingError(f"preference for {feature!r} must be a mapping")
        preferred: Any = entry.get("preferred")
        if preferred == "max":
            preferred = MAX
        elif preferred == "min":
            preferred = MIN
        elif isinstance(preferred, (int, float)) and not isinstance(
            preferred, bool
        ):
            preferred = float(preferred)
        else:
            raise RankingError(
                f"preferred value for {feature!r} must be a number, "
                f"'max' or 'min', got {preferred!r}"
            )
        weight = entry.get("weight")
        if not isinstance(weight, int) or isinstance(weight, bool):
            raise RankingError(f"weight for {feature!r} must be an integer")
        preferences[str(feature)] = FeaturePreference(preferred, weight)
    return PreferenceProfile(name, preferences)


def rank_query_reply(ranker: PersonalizableRanker, envelope: Envelope) -> Envelope:
    """Answer one ``rank_query`` envelope: Algorithm 2 for its profiles.

    Batch on purpose: all profiles in the request share one
    ``feature_data`` scan and H matrix (``rank_many``), and repeat
    queries over unchanged data come straight from the versioned
    ranking cache. A malformed query or a :class:`RankingError` becomes
    an ERROR reply; any other error propagates to the caller. A primary
    and its read-replicas both answer through here, so they send equal
    replies for equal data.
    """
    payload = envelope.payload
    category = payload.get("category")
    raw_profiles = payload.get("profiles")
    if not isinstance(category, str) or not isinstance(raw_profiles, list):
        return envelope.reply(MessageType.ERROR, {"reason": "malformed rank query"})
    try:
        profiles = [profile_from_dict(entry) for entry in raw_profiles]
        if not profiles:
            raise RankingError("rank query needs at least one profile")
        reports = ranker.rank_many(category, profiles)
    except RankingError as exc:
        return envelope.reply(MessageType.ERROR, {"reason": str(exc)})
    return envelope.reply(
        MessageType.RANKING,
        {
            "category": category,
            "data_version": ranker.data_version(category),
            "rankings": [
                {
                    "profile": name,
                    "places": list(report.ranking.items),
                    "weighted_footrule": report.weighted_footrule,
                    "weighted_kemeny": report.weighted_kemeny,
                }
                for name, report in reports.items()
            ],
        },
    )


@dataclass(frozen=True)
class RankingReport:
    """The aggregated ranking plus everything needed to explain it.

    A report names no profile: the ranking cache serves one report to
    every profile with the same preferences, and ``rank_many`` keys its
    reports by the name each was asked for.
    """

    category: str
    ranking: Ranking
    feature_names: list[str]
    feature_matrix: np.ndarray
    place_ids: list[str]
    individual: list[Ranking]
    weights: list[int]
    weighted_footrule: float
    weighted_kemeny: float


class RankingCache:
    """Size-bounded LRU cache of finished :class:`RankingReport` objects.

    Keys are ``(category, data_version, profile fingerprint)`` tuples;
    since the data version changes on every feature write, entries for
    stale data simply stop being addressable and age out of the LRU.
    Hit/miss/eviction counts are both kept as plain attributes (for
    reports and tests) and exported as ``sor_ranking_cache_*_total``.
    """

    def __init__(
        self, capacity: int = 256, *, metrics: MetricsRegistry | None = None
    ) -> None:
        if capacity < 1:
            raise RankingError("ranking cache capacity must be positive")
        self.capacity = capacity
        # Concurrent RANK_QUERY handlers hit the cache from many worker
        # threads at once, and even a read reorders the LRU list.
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, RankingReport] = OrderedDict()
        registry = metrics if metrics is not None else get_metrics()
        self._m_hits = registry.counter(
            "sor_ranking_cache_hits_total",
            "ranking requests served from the versioned ranking cache",
        )
        self._m_misses = registry.counter(
            "sor_ranking_cache_misses_total",
            "ranking requests that had to run the full Algorithm 2 pipeline",
        )
        self._m_evictions = registry.counter(
            "sor_ranking_cache_evictions_total",
            "cached ranking reports evicted by the LRU size bound",
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> RankingReport | None:
        """The cached report for ``key``, refreshing its LRU position."""
        with self._lock:
            report = self._entries.get(key)
            if report is None:
                self.misses += 1
                self._m_misses.inc()
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self._m_hits.inc()
            return report

    def put(self, key: tuple, report: RankingReport) -> None:
        """Store ``report`` under ``key``, evicting LRU overflow."""
        with self._lock:
            self._entries[key] = report
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                self._m_evictions.inc()

    def clear(self) -> None:
        """Drop every entry (counters keep their totals)."""
        with self._lock:
            self._entries.clear()


class _CategoryScan:
    """One ``feature_data`` scan of a category plus what derives from it.

    Built once per ``(category, data_version)`` and shared by every
    request at that version, so it holds nothing a request may change.
    At N places and F common features it keeps the read-only N × F H
    matrix, whether every cell is finite, each column's minimum and
    maximum (what MAX and MIN resolve to), the place order as a
    :class:`Ranking` (the basis) and the individual rankings of MAX and
    MIN preferences, at most two per feature, each holding two int
    arrays of N over the basis. A profile's feature subset selects its
    columns (a read-only copy, unless the subset is every common
    feature). A numeric preferred value is a client's float, so its
    ranking is computed per call, over the same basis.
    """

    def __init__(
        self,
        category: str,
        data_version: int,
        values: dict[str, dict[str, float]],
    ) -> None:
        self.category = category
        self.data_version = data_version
        feature_sets = [set(features) for features in values.values()]
        common = set.intersection(*feature_sets) if feature_sets else set()
        self.common: tuple[str, ...] = tuple(sorted(common))
        self._columns = {feature: index for index, feature in enumerate(self.common)}
        self.place_ids: list[Hashable] = list(values)
        self.matrix_all = np.empty((len(self.place_ids), len(self.common)))
        for row, place_id in enumerate(self.place_ids):
            place = values[place_id]
            for column, feature in enumerate(self.common):
                self.matrix_all[row, column] = float(place[feature])
        self.matrix_all.flags.writeable = False
        self._finite = bool(np.isfinite(self.matrix_all).all())
        self.basis: Ranking | None = None
        self._extremes: list[tuple[float, float]] = []
        if self.place_ids:
            self.basis = Ranking(self.place_ids)
            low, high = self.matrix_all.min(axis=0), self.matrix_all.max(axis=0)
            self._extremes = list(zip(low.tolist(), high.tolist()))
        self._rankings: dict[tuple[str, float], Ranking] = {}

    def matrix(self, feature_names: tuple[str, ...]) -> np.ndarray:
        """The validated, read-only H matrix of a sorted feature subset."""
        if feature_names == self.common:
            matrix = self.matrix_all
        else:
            matrix = self.matrix_all[:, [self._columns[f] for f in feature_names]]
            matrix.flags.writeable = False
        if not self._finite:
            require_finite_features(matrix, feature_names, self.place_ids)
        return matrix

    def individual(self, feature: str, preference: FeaturePreference) -> Ranking:
        """Step 1+2 for one finite feature column, keyed on (feature, uⱼ)."""
        column = self._columns[feature]
        preferred = preference.resolve(*self._extremes[column])
        key = (feature, preferred)
        ranking = self._rankings.get(key)
        if ranking is None:
            gamma = np.abs(self.matrix_all[:, column] - preferred)
            ranking = Ranking.over(self.basis, np.argsort(gamma, kind="stable"))
            if preference.preferred is MAX or preference.preferred is MIN:
                self._rankings[key] = ranking
        return ranking


class PersonalizableRanker:
    """Ranks the places of a category for preference profiles.

    With a :class:`RankingCache` attached, repeated requests for the
    same ``(category, data version, profile)`` are served without
    touching ``feature_data``; without one every call ranks afresh.
    Either way a miss ranks from the category's scan at its current
    version, built on the first miss there (``sor_ranking_scans_total``
    counts the builds). Only a category with feature rows keeps its
    scan, so category names that clients make up cannot grow the map.
    """

    def __init__(
        self,
        database: Database,
        *,
        cache: RankingCache | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.database = database
        self.cache = cache
        self.metrics = metrics if metrics is not None else get_metrics()
        self.tracer = tracer if tracer is not None else get_tracer()
        self._scans: dict[str, _CategoryScan] = {}
        # Concurrent readers that miss at once build one scan, not one each.
        self._scan_lock = threading.Lock()
        self._m_scans = self.metrics.counter(
            "sor_ranking_scans_total",
            "category feature_data scans built, one per category and data version",
        )

    def data_version(self, category: str) -> int:
        """The category's current durable feature-data version."""
        return get_data_version(self.database, category)

    def feature_values(self, category: str) -> dict[str, dict[str, float]]:
        """place_id → {feature → value} for every place in the category."""
        rows = self.database.table("feature_data").select(eq("category", category))
        values: dict[str, dict[str, float]] = {}
        for row in rows:
            values.setdefault(row["place_id"], {})[row["feature"]] = row["value"]
        return values

    def rank(self, category: str, profile: PreferenceProfile) -> RankingReport:
        """Run the full personalizable ranking pipeline for one profile."""
        with self.tracer.span("ranker.rank", category=category) as span:
            version = self.data_version(category)
            report, cached = self._rank_cached(category, version, profile)
            span.set_attribute("cache", "hit" if cached else "miss")
        return report

    def rank_many(
        self, category: str, profiles: list[PreferenceProfile]
    ) -> dict[str, RankingReport]:
        """Rank the category for every profile at one data version.

        Returns ``profile name → report`` in the profiles' order. Cached
        profiles are served from the cache; the remaining ones share the
        category's scan, H matrix and per-feature rankings.
        Raises :class:`RankingError` if two profiles share a name, since
        the result could hold only one of them.
        """
        names: set[str] = set()
        for profile in profiles:
            if profile.name in names:
                raise RankingError(f"duplicate profile name {profile.name!r}")
            names.add(profile.name)
        reports: dict[str, RankingReport] = {}
        hits = 0
        with self.tracer.span(
            "ranker.rank_many", category=category, profiles=len(profiles)
        ) as span:
            version = self.data_version(category)
            for profile in profiles:
                report, cached = self._rank_cached(category, version, profile)
                hits += cached
                reports[profile.name] = report
            span.set_attribute("cache_hits", hits)
        return reports

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _scan(self, category: str, version: int) -> _CategoryScan:
        """The category's scan at ``version``, built on first use."""
        scan = self._scans.get(category)
        if scan is not None and scan.data_version == version:
            return scan
        with self._scan_lock:
            scan = self._scans.get(category)
            if scan is None or scan.data_version != version:
                scan = _CategoryScan(category, version, self.feature_values(category))
                self._m_scans.inc()
                if scan.place_ids:
                    self._scans[category] = scan
                else:
                    self._scans.pop(category, None)
        return scan

    def _rank_cached(
        self, category: str, version: int, profile: PreferenceProfile
    ) -> tuple[RankingReport, bool]:
        key = (category, version, profile.fingerprint())
        if self.cache is not None:
            report = self.cache.get(key)
            if report is not None:
                return report, True
        report = self._rank_profile(self._scan(category, version), profile)
        if self.cache is not None:
            self.cache.put(key, report)
        return report, False

    def _rank_profile(
        self, scan: _CategoryScan, profile: PreferenceProfile
    ) -> RankingReport:
        if len(scan.place_ids) < 2:
            raise RankingError(
                f"need at least two places with feature data in "
                f"{scan.category!r}"
            )
        # Features the profile never mentioned count as weight 0 (the
        # paper's "doesn't care") instead of crashing the whole category.
        feature_names = tuple(
            feature
            for feature in scan.common
            if profile.effective_weight(feature) > 0
        )
        if not feature_names:
            raise RankingError(
                "no common features with positive weight for this profile"
            )
        matrix = scan.matrix(feature_names)
        individual = [
            scan.individual(feature, profile.preference(feature))
            for feature in feature_names
        ]
        weights = [profile.weight(feature) for feature in feature_names]
        ranking = aggregate_footrule(individual, weights, metrics=self.metrics)
        return RankingReport(
            category=scan.category,
            ranking=ranking,
            feature_names=list(feature_names),
            feature_matrix=matrix,
            place_ids=list(scan.place_ids),
            individual=individual,
            weights=weights,
            weighted_footrule=weighted_footrule_distance(
                ranking, individual, weights
            ),
            weighted_kemeny=weighted_kemeny_distance(ranking, individual, weights),
        )
