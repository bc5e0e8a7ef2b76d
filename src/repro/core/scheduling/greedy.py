"""The greedy scheduler (paper Algorithm 1).

Algorithm 1: repeatedly add the time instant with the maximum incremental
coverage, as long as some user with remaining budget can take it; stop
when no user can be scheduled further. Because the objective is monotone
submodular and the constraint a (partition) matroid, greedy achieves at
least half the optimum [paper ref 10].

Two execution modes:

* ``mode="exact"`` (default) — one masked argmax per pick over
  ``objective.current_gains``. On :class:`CoverageObjective` that is
  the *maintained* gains array, so nothing is re-evaluated; an
  objective without maintained gains (the scalar oracle, the blended
  multi-kernel objective) answers with a fresh sweep of every instant.
* ``mode="stochastic"`` — stochastic greedy (Mirzasoleiman et al.'s
  "lazier than lazy greedy", applied to sensor scheduling by Hashemi
  et al., arXiv:1709.08823): each pick draws
  ``s = ⌈(|T|/B)·ln(1/ε)⌉`` candidates uniformly from the feasible
  instants with an injected seeded rng and scores them in one batched
  :meth:`CoverageObjective.gains_at` call, taking the best sampled
  gain — O(s) gain reads per pick instead of O(|T|), keeping the
  ``(1 − 1/e − ε)``-of-optimal guarantee *in expectation*. Exact under
  a fixed seed (the scaling bench and the hypothesis suite pin both
  determinism and value-within-ε), but NOT schedule-identical to the
  exact mode — use it when the horizon is too long for a dense sweep
  per pick (≳10⁴ instants; see docs/SCHEDULING.md). A dry sample
  (no sampled instant both clears ``min_gain`` and has a free user)
  falls back to one exact pick, so the loop terminates exactly when
  exact greedy would and never stops early on an unlucky draw.

Every pick, in either mode, goes through one commit walk: try the
instant with the best gain, and if no user can take it, walk a stable
best-first order until a gain falls below ``min_gain``.

The exact mode breaks exact ties toward the lower instant index, and
:class:`CoverageObjective`'s gains are bitwise equal to the scalar
oracle's (:mod:`repro.core.scheduling.reference`), so the differential
tests can pin its schedules to the ones :meth:`GreedyScheduler._solve`
computes over the oracle. The stochastic mode is exactly deterministic
under a fixed seed and breaks exact ties toward the first-drawn
candidate.

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

import numpy as np

from repro.common.errors import SchedulingError
from repro.core.scheduling.objective import CoverageObjective
from repro.core.scheduling.problem import Schedule, SchedulingProblem
from repro.obs import MetricsRegistry, get_metrics

#: The selectable greedy execution modes.
GREEDY_MODES = ("exact", "stochastic")

#: Sentinel key for infeasible users in the user-selection argmin.
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


def argmax_tied_low(values: np.ndarray) -> int:
    """Index of the maximum, breaking exact ties toward the lowest index.

    The explicit tie-break contract every scheduling loop uses: it makes
    re-runs, and greedy over the objective and over the oracle, agree on
    which of several equally good instants is picked. (This is what
    ``np.argmax`` does — first occurrence — but the contract is
    load-bearing for the differential tests, so it lives behind a name
    with a regression test rather than an implementation detail.)
    """
    return int(np.asarray(values).argmax())


def greedy_window(
    objective: CoverageObjective,
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


class _GreedyState:
    """One solve's user-selection state and its one commit walk.

    ``window_mask[j, k]`` — instant ``j`` lies in user ``k``'s presence
    window (static); ``user_key[k] = arrival_rank[k] - remaining[k]·U``
    (the integer encoding of the (-remaining, arrival, index) selection
    key); ``budget_ok[k]`` — user ``k`` still has budget;
    ``available[j]`` — how many users could still take instant ``j``.
    ``feasible_mask`` is ``available > 0``; it is rebuilt, and
    ``exhausted`` counts one more, each time a user's budget runs out.
    """

    def __init__(
        self,
        problem: SchedulingProblem,
        objective: CoverageObjective,
        min_gain: float,
    ) -> None:
        self.objective = objective
        self.min_gain = min_gain
        num_users = len(problem.users)
        num_instants = problem.period.num_instants
        self.remaining = np.array(
            [user.budget for user in problem.users], dtype=np.int64
        )
        self.bounds = [problem.user_window(index) for index in range(num_users)]
        # Encode the user-selection key (-remaining, arrival, index) into
        # one integer per user: arrival_rank orders (arrival, index)
        # pairs, and remaining shifts by num_users per unit, so an
        # argmin over ``arrival_rank - remaining * num_users`` picks the
        # same user as the lexicographic minimum. _assign maintains it
        # (+num_users per pick), and window membership is precomputed
        # per instant, leaving _user_for a mask, a where and an argmin.
        arrivals = np.array([user.arrival for user in problem.users])
        arrival_order = np.lexsort((np.arange(num_users), arrivals))
        arrival_rank = np.empty(num_users, dtype=np.int64)
        arrival_rank[arrival_order] = np.arange(num_users)
        self.user_key = arrival_rank - self.remaining * num_users
        self.budget_ok = self.remaining > 0
        self.window_mask = np.zeros((num_instants, num_users), dtype=bool)
        self.available = np.zeros(num_instants, dtype=np.int64)
        for user_index, (lo, hi) in enumerate(self.bounds):
            self.window_mask[lo:hi, user_index] = True
            if self.budget_ok[user_index]:
                self.available[lo:hi] += 1
        self.feasible_mask = self.available > 0
        self.exhausted = 0
        self.assigned: list[set[int]] = [set() for _ in range(num_users)]
        self.pooled: set[int] = set()

    def pick_exact(self) -> bool:
        """One exact pick: the masked argmax of every gain, then the walk."""
        masked = np.where(self.feasible_mask, self.objective.current_gains, -np.inf)
        return self.walk(masked, argmax_tied_low(masked))

    def walk(
        self,
        gains: np.ndarray,
        best: int,
        candidates: np.ndarray | None = None,
    ) -> bool:
        """Commit the best instant a user can take; False if none clears ``min_gain``.

        ``best`` is the position of the first maximum of ``gains``, and
        ``candidates`` maps positions to instants (a stochastic sample;
        without it, positions are instants). The best instant is tried
        first. Only when no user can take it does the walk go through
        every position best-first: the stable argsort keeps exact ties
        in ascending position, extending the lowest-index tie-break.
        """
        if gains[best] < self.min_gain:
            return False
        instant = best if candidates is None else int(candidates[best])
        user_index = self._user_for(instant)
        if user_index is None:
            for position in np.argsort(-gains, kind="stable"):
                if gains[position] < self.min_gain:
                    return False
                instant = int(
                    position if candidates is None else candidates[position]
                )
                user_index = self._user_for(instant)
                if user_index is not None:
                    break
            else:
                return False
        self._assign(instant, user_index)
        return True

    def _user_for(self, instant_index: int) -> int | None:
        """The feasible user with the most remaining budget, or None.

        Feasible: window contains the instant, budget remaining, instant
        not already assigned to them. Ties break toward earlier arrival
        then user order — min of the key (-remaining, arrival, index),
        encoded as the single maintained integer ``user_key``
        (``arrival_rank < U``, so any budget difference dominates any
        rank difference) and resolved with one argmin.
        """
        feasible = self.window_mask[instant_index] & self.budget_ok
        if instant_index in self.pooled:
            # Only instants already in the pooled set can be held by a
            # user; checking membership per feasible user is the rare
            # path (re-picking an already-chosen instant).
            for user_index in np.flatnonzero(feasible):
                if instant_index in self.assigned[user_index]:
                    feasible[user_index] = False
        key = np.where(feasible, self.user_key, _INFEASIBLE_KEY)
        winner = int(np.argmin(key))
        if not feasible[winner]:
            return None
        return winner

    def _assign(self, instant_index: int, user_index: int) -> None:
        """Give ``instant_index`` to ``user_index`` and add it to the objective."""
        self.objective.add(instant_index)
        self.assigned[user_index].add(instant_index)
        self.pooled.add(instant_index)
        self.remaining[user_index] -= 1
        self.user_key[user_index] += self.budget_ok.shape[0]
        if self.remaining[user_index] == 0:
            self.budget_ok[user_index] = False
            lo, hi = self.bounds[user_index]
            self.available[lo:hi] -= 1
            self.feasible_mask = self.available > 0
            self.exhausted += 1


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
        # pick via the batched ``gains_at``, so the objective's per-add
        # full-band gains maintenance would be pure overhead.
        objective = CoverageObjective(
            problem.period,
            problem.kernel,
            maintain_gains=self.mode != "stochastic",
        )
        return self._solve(problem, objective)

    def _solve(
        self, problem: SchedulingProblem, objective: CoverageObjective
    ) -> Schedule:
        """Run the configured loop over a caller-built ``objective``.

        Any objective with the incremental interface works in the exact
        mode — the multi-kernel scheduler passes its blended objective
        here, and the differential tests the scalar oracle. The
        stochastic mode also needs ``gains_at``.
        """
        state = _GreedyState(problem, objective, self.min_gain)
        num_instants = problem.period.num_instants
        if self.mode == "stochastic":
            rng = (
                self.rng
                if self.rng is not None
                else np.random.default_rng(self.seed)
            )
            evaluations = self._run_stochastic(state, num_instants, rng)
        else:
            # A maintained gains array is read in place and counts one
            # evaluation per pick; any other objective's
            # ``current_gains`` is a fresh sweep of every instant.
            sweep = (
                1 if getattr(objective, "maintains_gains", False) else num_instants
            )
            evaluations = sweep
            while state.pick_exact():
                evaluations += sweep
        schedule = Schedule(
            problem=problem,
            assignments={
                problem.users[user_index].user_id: sorted(instants)
                for user_index, instants in enumerate(state.assigned)
            },
            objective_value=objective.value(),
        )
        schedule.validate()
        self._m_evaluations.inc(evaluations, strategy=self.mode)
        self._m_selected.inc(sum(len(instants) for instants in state.assigned))
        self._m_coverage.set(schedule.average_coverage)
        return schedule

    # ------------------------------------------------------------------
    # stochastic-sampling loop
    # ------------------------------------------------------------------
    def _run_stochastic(
        self,
        state: _GreedyState,
        num_instants: int,
        rng: np.random.Generator,
    ) -> int:
        """Stochastic-greedy loop; returns the number of gain evaluations.

        Per pick: draw ``s = ⌈(N/B)·ln(1/ε)⌉`` uniform candidates from
        the feasible instants (with replacement — the coupon-style bound
        ``P(sample misses the top set) ≤ (1 − k/N)^s`` holds verbatim,
        and an O(s) draw keeps the pick cost independent of the
        horizon), score them in one batched ``gains_at`` call, and hand
        the sample to the commit walk, which gives the best sampled
        instant to the user with the most remaining budget. A dry
        sample — nothing drawn clears ``min_gain`` and has a free user
        — falls back to one exact pick: stop if the true best is below
        ``min_gain`` (exact greedy would stop here too), else commit
        it. The fallback preserves termination and can only raise the
        achieved value, so the ``(1 − 1/e − ε)`` expectation bound is
        untouched. Evaluations are the samples drawn plus one full
        sweep per fallback.
        """
        samples_drawn = 0
        fallbacks = 0
        budget_left = int(state.remaining.sum())
        sample_size = stochastic_sample_size(
            num_instants, budget_left, self.sample_epsilon
        )
        objective = state.objective
        exhausted = state.exhausted
        feasible_indices = np.flatnonzero(state.feasible_mask)
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
            # One banded matvec; duplicates from the with-replacement
            # draw are scored twice — cheaper than deduplicating.
            gains = objective.gains_at(candidates)
            samples_drawn += int(draws.size)
            # argmax_tied_low inlined (first occurrence = first drawn).
            if not state.walk(gains, int(gains.argmax()), candidates):
                fallbacks += 1
                if not state.pick_exact():
                    break  # nothing feasible clears min_gain anywhere
            budget_left -= 1
            if state.exhausted != exhausted:
                exhausted = state.exhausted
                feasible_indices = np.flatnonzero(state.feasible_mask)
                draw_chunk = None
        if samples_drawn:
            self._m_samples.inc(samples_drawn)
        if fallbacks:
            self._m_fallbacks.inc(fallbacks)
        return samples_drawn + fallbacks * num_instants
