"""The greedy scheduler (paper Algorithm 1).

Algorithm 1: repeatedly add the time instant with the maximum incremental
coverage, as long as some user with remaining budget can take it; stop
when no user can be scheduled further. Because the objective is monotone
submodular and the constraint a (partition) matroid, greedy achieves at
least half the optimum [paper ref 10].

Two execution modes:

* ``mode="exact"`` (default) — one masked argmax per pick over
  ``objective.current_gains``. On the numpy backend that is the
  objective's *maintained* gains array, so nothing is re-evaluated; on
  the scalar reference backend it is a fresh sweep of every instant —
  the paper-literal Algorithm 1 on the specification.
* ``mode="stochastic"`` — stochastic greedy (Mirzasoleiman et al.'s
  "lazier than lazy greedy", applied to sensor scheduling by Hashemi
  et al., arXiv:1709.08823): each pick draws
  ``s = ⌈(|T|/B)·ln(1/ε)⌉`` candidates uniformly from the feasible
  instants with an injected seeded rng and takes the best sampled
  gain — O(s) gain reads per pick instead of O(|T|), keeping the
  ``(1 − 1/e − ε)``-of-optimal guarantee *in expectation*. Exact under
  a fixed seed (the scaling bench and the hypothesis suite pin both
  determinism and value-within-ε), but NOT schedule-identical to the
  exact mode — use it when the horizon is too long for a dense sweep
  per pick (≳10⁴ instants; see docs/SCHEDULING.md). A dry sample
  (every sampled gain below ``min_gain``) falls back to one exact
  masked sweep, so the loop terminates exactly when exact greedy
  would and never stops early on an unlucky draw.

The exact mode reads bitwise-identical gain values on both backends
and breaks exact ties toward the lower instant index, so its schedules
match bitwise across backends. The stochastic mode is exactly
deterministic under a fixed seed *within* a backend, but its schedules
are not guaranteed identical across backends: the numpy backend scores
sampled candidates with one BLAS dot per window (accumulation order
differs from the fold tree by ~1 ulp — see ``CoverageObjective.
gains_at``) and breaks exact ties toward the first-drawn candidate,
while the reference backend walks a sorted, deduplicated sample with
fold-order gains.

Both modes run on either coverage backend (``backend="numpy"`` — the
vectorized default — or ``"reference"``, the scalar specification; see
docs/SCHEDULING.md). The differential tests pin the two backends to
identical exact schedules.

:func:`greedy_window` is the same exact pick restricted to one
presence window and one budget — the loop the online scheduler service
and the per-user scheduler run.

User assignment: when an instant is selected, it is given to the
feasible user (window contains the instant, budget remaining, instant
not already assigned to them) with the most remaining budget, breaking
ties toward earlier arrival then user order. This spreads load across
users — the paper's fairness goal ("prevent certain mobile users from
being abused").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.common.errors import SchedulingError
from repro.core.scheduling.matroid import BudgetPartitionMatroid
from repro.core.scheduling.objective import (
    DEFAULT_BACKEND,
    CoverageObjective,
    ReferenceCoverageObjective,
    make_objective,
)
from repro.core.scheduling.problem import Schedule, SchedulingProblem
from repro.obs import MetricsRegistry, get_metrics

AnyCoverageObjective = CoverageObjective | ReferenceCoverageObjective

#: The selectable greedy execution modes.
GREEDY_MODES = ("exact", "stochastic")

#: Sentinel key for infeasible users in the `_pick_user` argmin.
_INFEASIBLE_KEY = np.iinfo(np.int64).max


def stochastic_sample_size(
    num_candidates: int, total_budget: int, epsilon: float
) -> int:
    """Per-pick sample size ``⌈(N/B)·ln(1/ε)⌉``, clamped to [1, N].

    The stochastic-greedy bound: drawing this many uniform candidates
    per pick keeps the expected value within ``(1 − 1/e − ε)`` of
    optimal (Mirzasoleiman et al. 2015; Hashemi et al.,
    arXiv:1709.08823, for the scheduling setting). A non-positive
    budget degenerates to the full candidate count.
    """
    if num_candidates <= 0:
        return 0
    if total_budget <= 0:
        return num_candidates
    size = math.ceil(
        (num_candidates / total_budget) * math.log(1.0 / epsilon)
    )
    return int(max(1, min(num_candidates, size)))


@dataclass
class _PickState:
    """Per-solve user-selection state, maintained by ``_commit``.

    ``window_mask[j, k]`` — instant ``j`` lies in user ``k``'s presence
    window (static); ``user_key[k] = arrival_rank[k] - remaining[k]·U``
    (the integer encoding of the (-remaining, arrival, index) selection
    key); ``budget_ok[k]`` — user ``k`` still has budget.
    """

    window_mask: np.ndarray
    user_key: np.ndarray
    budget_ok: np.ndarray


def argmax_tied_low(values: np.ndarray) -> int:
    """Index of the maximum, breaking exact ties toward the lowest index.

    The explicit tie-break contract every scheduling loop uses: it makes
    re-runs and the numpy/reference backends agree on which of several
    equally good instants is picked. (This is what ``np.argmax`` does —
    first occurrence — but the contract is load-bearing for the
    differential tests, so it lives behind a name with a regression
    test rather than an implementation detail.)
    """
    return int(np.asarray(values).argmax())


def greedy_window(
    objective: AnyCoverageObjective,
    lo: int,
    hi: int,
    budget: int,
    min_gain: float,
) -> list[int]:
    """Greedily add up to ``budget`` instants of ``[lo, hi)`` to ``objective``.

    One window, one budget: each pick reads the window slice of
    ``objective.current_gains``, takes its lowest-index argmax, and
    stops once that gain falls below ``min_gain``. Instants this call
    already picked are masked out, so it never returns a duplicate.
    This is the loop behind the online scheduler service (one
    participant's remaining window over the application's pooled
    objective), the per-user equation-(2) scheduler and the online
    ablation. Returns the picks in pick order.
    """
    picks: list[int] = []
    if hi <= lo:
        return picks
    for _ in range(budget):
        gains = objective.current_gains[lo:hi]
        if picks:
            gains = gains.copy()
            gains[np.asarray(picks) - lo] = -np.inf
        best = argmax_tied_low(gains)
        if gains[best] < min_gain:
            break
        objective.add(lo + best)
        picks.append(lo + best)
    return picks


class GreedyScheduler:
    """Greedy maximization of coverage over the budget partition matroid.

    ``min_gain`` stops the loop once the best marginal coverage falls
    below it: scheduling a measurement that adds (numerically) nothing
    would only burn a phone's budget and battery. Set it to 0 to run the
    matroid to a basis like the paper's literal while-condition.

    ``mode`` selects the execution strategy (``"exact"`` or
    ``"stochastic"``; see the module docstring). The stochastic mode
    samples with ``rng`` if injected, else a fresh
    ``np.random.default_rng(seed)`` per solve — so a scheduler object
    re-solved with the same seed is exactly deterministic, while an
    injected generator advances across solves under the caller's
    control. ``sample_epsilon`` is the ε of the sample-size formula
    (smaller ε → larger samples → tighter guarantee).
    """

    def __init__(
        self,
        *,
        min_gain: float = 1e-12,
        backend: str = DEFAULT_BACKEND,
        metrics: MetricsRegistry | None = None,
        mode: str = "exact",
        sample_epsilon: float = 0.1,
        seed: int = 2014,
        rng: np.random.Generator | None = None,
    ) -> None:
        if mode not in GREEDY_MODES:
            raise SchedulingError(
                f"unknown greedy mode {mode!r}; expected one of {GREEDY_MODES}"
            )
        if not 0.0 < sample_epsilon < 1.0:
            raise SchedulingError(
                f"sample_epsilon must be in (0, 1), got {sample_epsilon!r}"
            )
        self.mode = mode
        self.min_gain = min_gain
        self.backend = backend
        self.sample_epsilon = sample_epsilon
        self.seed = seed
        self.rng = rng
        self.metrics = metrics if metrics is not None else get_metrics()
        # Evaluation counts are accumulated locally inside the loops and
        # reported once per solve, so instrumentation stays off the
        # per-iteration hot path.
        self._m_evaluations = self.metrics.counter(
            "sor_greedy_evaluations_total",
            "marginal-gain evaluations performed by GreedyScheduler.solve",
            labels=("strategy",),
        )
        self._m_selected = self.metrics.counter(
            "sor_greedy_instants_selected_total",
            "instants committed to schedules by GreedyScheduler.solve",
        )
        self._m_coverage = self.metrics.gauge(
            "sor_greedy_coverage",
            "average coverage achieved by the most recent solve",
        )
        self._m_samples = self.metrics.counter(
            "sor_greedy_stochastic_samples_total",
            "candidate draws made by the stochastic greedy sampler",
        )
        self._m_fallbacks = self.metrics.counter(
            "sor_greedy_stochastic_fallbacks_total",
            "dry stochastic samples resolved by an exact masked sweep",
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def solve(self, problem: SchedulingProblem) -> Schedule:
        """Compute a schedule for every user of ``problem``."""
        # The sampling loop only scores O((N/B)·log(1/ε)) candidates per
        # pick via the batched ``gains_at``, so the numpy backend's
        # per-add full-band gains maintenance would be pure overhead.
        objective = make_objective(
            problem.period,
            problem.kernel,
            self.backend,
            maintain_gains=self.mode != "stochastic",
        )
        return self._solve(problem, objective)

    def _solve(
        self, problem: SchedulingProblem, objective: AnyCoverageObjective
    ) -> Schedule:
        """Run the configured loop over a caller-built ``objective``.

        Any objective with the incremental interface works — the
        multi-kernel scheduler passes its blended objective here.
        """
        num_users = len(problem.users)
        remaining = np.array(
            [user.budget for user in problem.users], dtype=np.int64
        )
        # Per-user window bounds and arrivals as arrays: _pick_user is a
        # handful of vector ops instead of a Python loop over users.
        user_lo = np.empty(num_users, dtype=np.int64)
        user_hi = np.empty(num_users, dtype=np.int64)
        for user_index in range(num_users):
            user_lo[user_index], user_hi[user_index] = problem.user_window(
                user_index
            )
        # Encode the user-selection key (-remaining, arrival, index) into
        # one integer per user: arrival_rank orders (arrival, index)
        # pairs, and remaining shifts by num_users per unit, so an
        # argmin over ``arrival_rank - remaining * num_users`` picks the
        # same user as the lexicographic minimum. The key array is
        # maintained incrementally by _commit (+num_users per pick), and
        # window membership is precomputed per instant, leaving
        # _pick_user a mask, a where and an argmin.
        arrivals = np.array([user.arrival for user in problem.users])
        arrival_order = np.lexsort((np.arange(num_users), arrivals))
        arrival_rank = np.empty(num_users, dtype=np.int64)
        arrival_rank[arrival_order] = np.arange(num_users)
        window_mask = np.zeros(
            (problem.period.num_instants, num_users), dtype=bool
        )
        for user_index in range(num_users):
            window_mask[user_lo[user_index] : user_hi[user_index], user_index] = True
        pick_state = _PickState(
            window_mask=window_mask,
            user_key=arrival_rank - remaining * num_users,
            budget_ok=remaining > 0,
        )
        # available[j] = number of users that could still take instant j.
        available = np.zeros(problem.period.num_instants, dtype=np.int64)
        for user_index in range(num_users):
            if remaining[user_index] > 0:
                available[user_lo[user_index] : user_hi[user_index]] += 1
        assigned: dict[int, set[int]] = {
            user_index: set() for user_index in range(num_users)
        }
        if self.mode == "stochastic":
            rng = (
                self.rng
                if self.rng is not None
                else np.random.default_rng(self.seed)
            )
            evaluations = self._run_stochastic(
                problem, objective, pick_state, remaining, available, assigned,
                rng,
            )
        else:
            evaluations = self._run_exact(
                problem, objective, pick_state, remaining, available, assigned
            )
        schedule = Schedule(
            problem=problem,
            assignments={
                problem.users[user_index].user_id: sorted(instants)
                for user_index, instants in assigned.items()
            },
            objective_value=objective.value(),
        )
        schedule.validate()
        self._m_evaluations.inc(evaluations, strategy=self.mode)
        self._m_selected.inc(sum(len(instants) for instants in assigned.values()))
        self._m_coverage.set(schedule.average_coverage)
        return schedule

    def matroid_for(self, problem: SchedulingProblem) -> BudgetPartitionMatroid:
        """The partition matroid over (user, instant) pairs for ``problem``."""
        return BudgetPartitionMatroid(
            capacities={
                user_index: user.budget
                for user_index, user in enumerate(problem.users)
            },
            part_of=lambda element: element[0],
        )

    # ------------------------------------------------------------------
    # user selection
    # ------------------------------------------------------------------
    @staticmethod
    def _pick_user(
        pick_state: _PickState,
        instant_index: int,
        assigned: dict[int, set[int]],
        pooled: set[int],
    ) -> int | None:
        """The feasible user with the most remaining budget, or None.

        Feasible: window contains the instant, budget remaining, instant
        not already assigned to them. Ties break toward earlier arrival
        then user order — min of the key (-remaining, arrival, index),
        encoded as the single maintained integer ``user_key``
        (``arrival_rank < U``, so any budget difference dominates any
        rank difference) and resolved with one argmin.
        """
        feasible = pick_state.window_mask[instant_index] & pick_state.budget_ok
        if instant_index in pooled:
            # Only instants already in the pooled set can be held by a
            # user; checking membership per feasible user is the rare
            # path (re-picking an already-chosen instant).
            for user_index in np.flatnonzero(feasible):
                if instant_index in assigned[int(user_index)]:
                    feasible[user_index] = False
        key = np.where(feasible, pick_state.user_key, _INFEASIBLE_KEY)
        winner = int(np.argmin(key))
        if not feasible[winner]:
            return None
        return winner

    def _commit(
        self,
        problem: SchedulingProblem,
        objective: AnyCoverageObjective,
        pick_state: _PickState,
        instant_index: int,
        user_index: int,
        remaining: np.ndarray,
        available: np.ndarray,
        assigned: dict[int, set[int]],
        pooled: set[int],
    ) -> bool:
        """Commit a pick; True iff ``available`` changed (user exhausted)."""
        objective.add(instant_index)
        assigned[user_index].add(instant_index)
        pooled.add(instant_index)
        remaining[user_index] -= 1
        pick_state.user_key[user_index] += pick_state.budget_ok.shape[0]
        if remaining[user_index] == 0:
            pick_state.budget_ok[user_index] = False
            lo, hi = problem.user_window(user_index)
            available[lo:hi] -= 1
            return True
        return False

    # ------------------------------------------------------------------
    # exact loop
    # ------------------------------------------------------------------
    def _run_exact(
        self,
        problem: SchedulingProblem,
        objective: AnyCoverageObjective,
        pick_state: _PickState,
        remaining: np.ndarray,
        available: np.ndarray,
        assigned: dict[int, set[int]],
    ) -> int:
        """Masked argmax per pick; returns the number of gain evaluations.

        A maintained gains array (numpy backend) is read in place and
        counts one evaluation per pick; any other objective's
        ``current_gains`` is a fresh sweep of every instant.
        """
        sweep_evaluations = (
            1
            if getattr(objective, "maintains_gains", False)
            else problem.period.num_instants
        )
        evaluations = 0
        pooled: set[int] = set()
        # ``available`` only changes when a user's budget empties
        # (_commit reports it), so the feasibility mask is refreshed on
        # that signal instead of being recomputed every pick.
        feasible_mask = available > 0
        while True:
            gains = objective.current_gains
            evaluations += sweep_evaluations
            masked = np.where(feasible_mask, gains, -np.inf)
            best = argmax_tied_low(masked)
            if masked[best] < self.min_gain:
                return evaluations
            user_index = self._pick_user(pick_state, best, assigned, pooled)
            if user_index is not None:
                if self._commit(
                    problem,
                    objective,
                    pick_state,
                    best,
                    user_index,
                    remaining,
                    available,
                    assigned,
                    pooled,
                ):
                    feasible_mask = available > 0
                continue
            # The top instant's holders are exhausted — walk candidates
            # best-first until one has a user that can actually take it.
            # The stable argsort keeps exact ties in ascending-index
            # order, extending the same lowest-index tie-break to the
            # fallback candidates.
            order = np.argsort(-masked, kind="stable")
            committed = False
            for candidate in order:
                if not feasible_mask[candidate]:
                    break  # -inf region reached; nothing feasible left
                if masked[candidate] < self.min_gain:
                    return evaluations
                user_index = self._pick_user(
                    pick_state, int(candidate), assigned, pooled
                )
                if user_index is not None:
                    if self._commit(
                        problem,
                        objective,
                        pick_state,
                        int(candidate),
                        user_index,
                        remaining,
                        available,
                        assigned,
                        pooled,
                    ):
                        feasible_mask = available > 0
                    committed = True
                    break
            if not committed:
                return evaluations

    # ------------------------------------------------------------------
    # stochastic-sampling loop
    # ------------------------------------------------------------------
    def _run_stochastic(
        self,
        problem: SchedulingProblem,
        objective: AnyCoverageObjective,
        pick_state: _PickState,
        remaining: np.ndarray,
        available: np.ndarray,
        assigned: dict[int, set[int]],
        rng: np.random.Generator,
    ) -> int:
        """Stochastic-greedy loop; returns the number of gain evaluations.

        Per pick: draw ``s = ⌈(N/B)·ln(1/ε)⌉`` uniform candidates from
        the feasible instants (with replacement — the coupon-style bound
        ``P(sample misses the top set) ≤ (1 − k/N)^s`` holds verbatim,
        and an O(s) draw keeps the pick cost independent of the
        horizon), score them in one batched ``gains_at`` call (numpy
        backend) or one ``objective.gain`` call per distinct candidate
        (reference), and commit the best sampled gain to the user with
        the most remaining budget. Only when that single best candidate
        has no free user does the pick fall back to a best-first walk
        over the rest of the sample. A dry sample — nothing drawn
        clears ``min_gain`` or has a free user — falls back to one
        exact masked sweep: stop if the true best is below ``min_gain``
        (exact greedy would stop here too), else commit it. The
        fallback preserves termination and can only raise the achieved
        value, so the ``(1 − 1/e − ε)`` expectation bound is untouched.
        """
        num_instants = problem.period.num_instants
        # The numpy backend scores an arbitrary candidate set in one
        # banded matvec (duplicates from the with-replacement draw are
        # scored twice — cheaper than deduplicating); the reference
        # backend pays a scalar ``gain()`` per candidate, so that path
        # deduplicates first.
        gains_at = getattr(objective, "gains_at", None)
        pooled: set[int] = set()
        evaluations = 0
        samples_drawn = 0
        fallbacks = 0
        budget_left = int(remaining.sum())
        sample_size = stochastic_sample_size(
            num_instants, budget_left, self.sample_epsilon
        )
        feasible_mask = available > 0
        feasible_indices = np.flatnonzero(feasible_mask)
        # Draws are taken in chunks of up to 32 picks: one
        # ``rng.integers`` call per chunk instead of per pick (the
        # generator's per-call overhead is comparable to the whole rest
        # of a pick). The feasible pool only shrinks when a user's
        # budget empties, so a chunk stays valid until the next refresh;
        # unconsumed rows are then discarded (the schedule remains a
        # deterministic function of the seed — only the mapping from
        # stream to picks changes).
        draw_chunk: np.ndarray | None = None
        draw_row = 0
        while budget_left > 0 and feasible_indices.size:
            if draw_chunk is None or draw_row >= draw_chunk.shape[0]:
                draw_chunk = rng.integers(
                    0,
                    feasible_indices.size,
                    size=(
                        max(1, min(32, budget_left)),
                        min(sample_size, int(feasible_indices.size)),
                    ),
                )
                draw_row = 0
            draws = draw_chunk[draw_row]
            draw_row += 1
            candidates = feasible_indices[draws]
            if gains_at is not None:
                gains = gains_at(candidates)
            else:
                # np.unique also sorts ascending, giving this path a
                # lowest-index tie-break under argmax_tied_low.
                candidates = np.unique(candidates)
                gains = np.array([objective.gain(int(c)) for c in candidates])
            samples_drawn += int(draws.size)
            evaluations += int(candidates.size)
            committed = False
            refresh = False
            # argmax_tied_low inlined (first occurrence = first drawn).
            best = int(gains.argmax())
            if gains[best] >= self.min_gain:
                user_index = self._pick_user(
                    pick_state, int(candidates[best]), assigned, pooled
                )
                if user_index is not None:
                    refresh = self._commit(
                        problem,
                        objective,
                        pick_state,
                        int(candidates[best]),
                        user_index,
                        remaining,
                        available,
                        assigned,
                        pooled,
                    )
                    budget_left -= 1
                    committed = True
                else:
                    # Rare: the sampled best has no free user — walk the
                    # rest of the sample best-first before giving up.
                    for position in np.argsort(-gains, kind="stable"):
                        if gains[position] < self.min_gain:
                            break
                        candidate = int(candidates[position])
                        user_index = self._pick_user(
                            pick_state, candidate, assigned, pooled
                        )
                        if user_index is None:
                            continue
                        refresh = self._commit(
                            problem,
                            objective,
                            pick_state,
                            candidate,
                            user_index,
                            remaining,
                            available,
                            assigned,
                            pooled,
                        )
                        budget_left -= 1
                        committed = True
                        break
            if not committed:
                fallbacks += 1
                # One exact sweep (the numpy backend recomputes the
                # whole band; the reference walks every instant).
                masked = np.where(
                    feasible_mask, objective.current_gains, -np.inf
                )
                evaluations += num_instants
                for candidate in np.argsort(-masked, kind="stable"):
                    if (
                        not feasible_mask[candidate]
                        or masked[candidate] < self.min_gain
                    ):
                        break
                    user_index = self._pick_user(
                        pick_state, int(candidate), assigned, pooled
                    )
                    if user_index is not None:
                        refresh = self._commit(
                            problem,
                            objective,
                            pick_state,
                            int(candidate),
                            user_index,
                            remaining,
                            available,
                            assigned,
                            pooled,
                        )
                        budget_left -= 1
                        committed = True
                        break
                if not committed:
                    break  # nothing feasible clears min_gain anywhere
            if refresh:
                feasible_mask = available > 0
                feasible_indices = np.flatnonzero(feasible_mask)
                draw_chunk = None
        if samples_drawn:
            self._m_samples.inc(samples_drawn)
        if fallbacks:
            self._m_fallbacks.inc(fallbacks)
        return evaluations
