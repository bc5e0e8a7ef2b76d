"""The scalar reference implementation of the coverage objective.

This module is the *specification*: a deliberately plain, loop-by-loop
transcription of the paper's equations (1) and (4) with no numpy in the
hot path. The vectorized backend in
:mod:`repro.core.scheduling.objective` is pinned to this code by the
differential tests (``tests/core/test_differential_scheduling.py``):
coverage values must agree to 1e-9 and greedy schedules must be
identical. Keep this implementation boring — its only jobs are to be
obviously correct and to stay importable as ``backend="reference"``.

Per instant ``j`` it maintains the survival product
``s_j = Π_{t_i∈Ψ}(1 - p_ij)`` directly (no log-space), truncating the
kernel at its support window exactly like the vectorized backend so the
two compute the same mathematical function.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import KernelValidationError, SchedulingError
from repro.core.scheduling.coverage import CoverageKernel
from repro.core.scheduling.problem import SchedulingPeriod


def validate_kernel_weights(
    weights, kernel: CoverageKernel, spacing: float
) -> None:
    """Reject kernel probabilities the survival state cannot represent.

    ``weights[d]`` is the kernel's probability at distance ``d·spacing``.
    The diagonal (d = 0) may be exactly 1 — a measurement fully covers
    its own instant and the log-space state carries the resulting −inf
    deliberately. Off the diagonal a probability of 1 would make
    ``log1p(-p) = -inf`` too, silently zeroing every survival product it
    touches, so both backends require p ∈ [0, 1) there (and p ∈ [0, 1]
    at d = 0). NaN and out-of-range values raise
    :class:`~repro.common.errors.KernelValidationError` naming the
    kernel and the offending distance.
    """
    for distance_index, weight in enumerate(weights):
        weight = float(weight)
        in_range = (
            0.0 <= weight <= 1.0
            if distance_index == 0
            else 0.0 <= weight < 1.0
        )
        if not in_range:  # NaN compares False, so it lands here too
            raise KernelValidationError(
                f"kernel {kernel!r} returned probability {weight!r} at "
                f"distance {distance_index * spacing:g}s; coverage "
                f"probabilities must lie in [0, 1) off the diagonal "
                f"(and in [0, 1] at distance 0)"
            )


def fold_tree_sum(terms: list[float]) -> float:
    """Sum ``terms`` with the backend-contract reduction tree.

    Folds the tail half onto the head half (``terms[i] += terms[i +
    rest]`` with ``rest = n - n//2``) until one value remains. The tree
    depends only on ``len(terms)``, and both backends use it to reduce
    the per-distance gain terms: the scalar reference folds a Python
    list, the vectorized backend folds array rows — element for element
    the same float additions in the same order, which makes the two
    backends' marginal gains bitwise identical (the schedule-identity
    differential tests rest on this). Mutates ``terms``.
    """
    count = len(terms)
    while count > 1:
        half = count // 2
        rest = count - half
        for index in range(half):
            terms[index] += terms[index + rest]
        count = rest
    return terms[0]


class ReferenceCoverageObjective:
    """Pure-Python incremental pooled-coverage objective.

    Same interface as the vectorized
    :class:`~repro.core.scheduling.objective.CoverageObjective`: the
    greedy schedulers are written against this protocol and accept
    either backend.
    """

    backend = "reference"
    #: Gains are recomputed on demand: every :attr:`current_gains` read
    #: is a fresh sweep.
    maintains_gains = False

    def __init__(self, period: SchedulingPeriod, kernel: CoverageKernel) -> None:
        self.period = period
        self.kernel = kernel
        spacing = period.spacing
        window = int(math.ceil(kernel.support() / spacing))
        window = min(window, period.num_instants - 1)
        self.window = window
        # weights[d] = p(d · spacing), truncated at the support window —
        # identical truncation to the vectorized kernel matrix.
        self.weights = [kernel.probability(d * spacing) for d in range(window + 1)]
        validate_kernel_weights(self.weights, kernel, spacing)
        self.survival = [1.0] * period.num_instants
        self._chosen: set[int] = set()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def chosen(self) -> frozenset[int]:
        return frozenset(self._chosen)

    def value(self) -> float:
        """Current objective ``Σ_j (1 - s_j)``."""
        total = 0.0
        for survival in self.survival:
            total += 1.0 - survival
        return total

    def average_coverage(self) -> float:
        """Objective divided by N (the paper's reported metric)."""
        return self.value() / self.period.num_instants

    def coverage_profile(self) -> np.ndarray:
        """Per-instant coverage probabilities ``1 - s_j``."""
        return np.array([1.0 - survival for survival in self.survival])

    def gain(self, instant_index: int) -> float:
        """Marginal gain of adding ``instant_index`` to the current set.

        ``w_0·s_j + fold_d[w_d·(s_{j-d} + s_{j+d})]``: the support
        window is walked outward by distance, the two instants at each
        distance are paired as ``w_d · (s_left + s_right)``
        (out-of-range sides contribute exactly 0.0), and the distance
        terms are reduced with :func:`fold_tree_sum`. Pairing first
        makes mirror-symmetric survival profiles give bitwise-equal
        mirrored gains (float addition is commutative in rounding); the
        fixed fold tree makes this the exact per-element operation
        sequence of the vectorized backend's maintained gains — the
        properties the cross-backend schedule-identity tests lean on.
        """
        if instant_index in self._chosen:
            return 0.0
        num_instants = self.period.num_instants
        survival = self.survival
        weights = self.weights
        total = survival[instant_index] * weights[0]
        if self.window:
            terms = []
            for distance in range(1, self.window + 1):
                left = instant_index - distance
                right = instant_index + distance
                left_survival = survival[left] if left >= 0 else 0.0
                right_survival = survival[right] if right < num_instants else 0.0
                terms.append(weights[distance] * (left_survival + right_survival))
            total += fold_tree_sum(terms)
        return total

    def gains_all(self) -> np.ndarray:
        """Marginal gains of every instant (instant-by-instant)."""
        return np.array([self.gain(j) for j in range(self.period.num_instants)])

    @property
    def current_gains(self) -> np.ndarray:
        """Marginal gains of every instant, as a fresh sweep."""
        return self.gains_all()

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def add(self, instant_index: int) -> float:
        """Add an instant; returns its realized marginal gain."""
        if not 0 <= instant_index < self.period.num_instants:
            raise SchedulingError(f"instant index {instant_index} out of range")
        gain = self.gain(instant_index)
        if instant_index in self._chosen:
            return 0.0
        lo = max(0, instant_index - self.window)
        hi = min(self.period.num_instants, instant_index + self.window + 1)
        for j in range(lo, hi):
            self.survival[j] *= 1.0 - self.weights[abs(j - instant_index)]
        self._chosen.add(instant_index)
        return gain


def reference_coverage_of_instants(
    period: SchedulingPeriod, kernel: CoverageKernel, instants: set[int] | list[int]
) -> float:
    """One-shot objective value of a pooled instant set (scalar path)."""
    objective = ReferenceCoverageObjective(period, kernel)
    for instant_index in sorted(set(instants)):
        objective.add(instant_index)
    return objective.value()
