"""The submodular coverage objective, vectorized with numpy.

``f(Ψ) = Σ_j p(t_j, Ψ)`` with ``p(t_j, Ψ) = 1 - Π_{t_i∈Ψ}(1 - p_ij)``
(paper equations (1) and (4)). :class:`CoverageObjective` is the one
objective every scheduler builds. It builds its own kernel band
``p(d·Δ)`` for ``d ∈ [-w, w]`` once, when it is constructed, and
maintains two coverage states side by side. The *gain path*
keeps the survival products ``s_j = Π_{i∈Ψ}(1 - p_ij)`` directly,
updated by windowed elementwise multiplies — bitwise identical to the
scalar oracle's products, which is what keeps the two objectives'
exact-tie structure (and therefore their greedy schedules) in lockstep.
The *value path* keeps ``ℓ_j = Σ_{i∈Ψ} log1p(-p_ij)`` so
:meth:`CoverageObjective.value` evaluates ``Σ_j (1 - exp(ℓ_j))`` in
log-space. Adding a measurement is two windowed vector updates plus a
banded recompute of the *maintained marginal-gains array* over the (at
most) ``4w+1`` instants whose gain changed — every operation O(window),
none O(|T|). Reading a marginal gain is then O(1), which is what makes
the greedy schedulers fast: they stop re-evaluating gains entirely.

The oracle is the scalar specification in
:mod:`repro.core.scheduling.reference`, a tests-only module the serving
code never imports. The differential tests hold this objective to it:
values to 1e-9, gains bitwise, identical greedy schedules.

Memory model — the kernel band. The update rows are Toeplitz
(``P[i, j] = p(|i - j|·Δ)``), and only the ``2w+1`` in-band entries of
any row are ever read, so the objective stores one mirrored band of
length ``2w+1`` per array — O(window) memory, independent of the
horizon, which is what lets the core scale to 10⁵ instants (a dense
|T|×|T| float matrix would be ~80 GB there). A band slice holds the
same floats as the matching row slice of the dense Toeplitz matrix
(both come from the same ``weights`` array by the same operations);
the differential suite pins that equality against a test-local dense
oracle.

The maintained gains are *recomputed* (not delta-updated) over the
affected band using a per-element operation sequence that never varies
with the slice — outward by distance, pairing ``w_d · (s_{j-d} +
s_{j+d})``. Recomputation keeps untouched plateau stretches bitwise
equal to freshly computed ones (a delta update would smear rounding
noise over them and break exact ties); the distance pairing makes
mirror-symmetric survival profiles produce bitwise-equal mirrored
gains; a slice-independent reduction tree makes translated copies of
the same survival pattern produce bitwise-equal gains. These
properties are what let the lowest-index argmax land on the same
instant as the oracle, which pairs its scalar accumulation the same
way.

Both objectives truncate the kernel at its support window (p < 1e-9 ≡
0), so they compute the same mathematical function and differ only in
floating-point rounding. The log-space error bound: each ``log1p``/
``exp`` pair is accurate to ~2 ulp, the row-sum over |Ψ| picks adds
|Ψ|·ulp of relative error to ℓ_j, so ``|s_j^numpy - s_j^ref| ≲
(|Ψ|+4)·ε·s_j`` with ε = 2⁻⁵² — summed over |T| instants the objective
values agree to ~|T|·|Ψ|·ε ≈ 1e-9 at far beyond paper scale (|T| =
1080, |Ψ| ≈ 700 gives ~4e-10).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.common.errors import SchedulingError
from repro.core.scheduling.coverage import CoverageKernel, validate_kernel_weights
from repro.core.scheduling.problem import SchedulingPeriod


# ----------------------------------------------------------------------
# kernel band
# ----------------------------------------------------------------------
class KernelBand(NamedTuple):
    """The mirrored kernel band one objective reads.

    ``weights[d] = p(d·Δ)`` for ``d ∈ [0, w]``;
    ``complement_band[d + window] = 1 - p(|d|·Δ)`` for ``d ∈ [-w, w]``
    (the survival-product update values — the same ``1 - w_d`` floats
    the scalar oracle multiplies by, so the two objectives' survival
    products are bitwise identical) and ``log_complement_band =
    log1p(-p)`` (the log-space add values, −inf only at the centre
    where p may be 1).
    """

    window: int
    weights: np.ndarray
    complement_band: np.ndarray
    log_complement_band: np.ndarray


def kernel_band(period: SchedulingPeriod, kernel: CoverageKernel) -> KernelBand:
    """Build and validate the kernel band of ``kernel`` over ``period``.

    The window is the kernel's support in instants, capped at the
    horizon. Every :class:`CoverageObjective` builds its own band when
    it is constructed: O(window) probability calls and array work.
    """
    spacing = period.spacing
    window = int(math.ceil(kernel.support() / spacing))
    window = min(window, period.num_instants - 1)
    weights = np.array(
        [kernel.probability(d * spacing) for d in range(window + 1)]
    )
    validate_kernel_weights(weights, kernel, spacing)
    # The mirrored band: index d + window holds p(|d|·Δ), fancy-indexed
    # from the weights array so every derived value (1 - p, log1p(-p))
    # equals the dense Toeplitz row's float for float.
    band_probability = weights[np.abs(np.arange(-window, window + 1))]
    complement_band = 1.0 - band_probability
    with np.errstate(divide="ignore"):
        # −inf can only appear at the centre (p(0) = 1 is legitimate —
        # a measurement fully covers its own instant);
        # validate_kernel_weights rejected p ≥ 1 off the diagonal.
        log_complement_band = np.log1p(-band_probability)
    return KernelBand(window, weights, complement_band, log_complement_band)


# ----------------------------------------------------------------------
# vectorized objective
# ----------------------------------------------------------------------
#: Largest gains-recompute scratch buffer that may hold a whole band:
#: 1 MiB of float64.
_BAND_SCRATCH_FLOATS = (1 << 20) // 8


class _UndoEntry(NamedTuple):
    """What one add overwrote: its pick and the prior band contents."""

    instant: int
    survival_lo: int
    survival: np.ndarray
    log_survival: np.ndarray
    gains_lo: int
    gains: np.ndarray | None


class UndoLog:
    """Records a :class:`CoverageObjective`'s adds so they can be undone.

    ``with UndoLog(objective) as undo:`` — adds made inside the block
    record the survival,
    log-survival and maintained-gains bands they overwrite, O(window)
    per add. :meth:`restore` writes those bands back newest first,
    which returns the objective to its state before the block, bitwise.
    It must run before any later add to the objective. A block that
    raises restores at once.
    """

    def __init__(self, objective: CoverageObjective) -> None:
        self._objective = objective
        self._entries: list[_UndoEntry] = []

    def __enter__(self) -> UndoLog:
        self._objective._undo_entries = self._entries
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        self._objective._undo_entries = None
        if exc_type is not None:
            self.restore()

    def restore(self) -> None:
        """Undo every recorded add (a second call does nothing)."""
        objective = self._objective
        for entry in reversed(self._entries):
            hi = entry.survival_lo + len(entry.survival)
            objective.survival[entry.survival_lo : hi] = entry.survival
            objective._log_survival[entry.survival_lo : hi] = entry.log_survival
            if entry.gains is not None:
                objective._gains[
                    entry.gains_lo : entry.gains_lo + len(entry.gains)
                ] = entry.gains
            objective._chosen.discard(entry.instant)
            objective._chosen_mask[entry.instant] = False
        if self._entries and not objective.maintains_gains:
            # A full-sweep read may have refreshed the gains in between.
            objective._gains_fresh = False
        self._entries.clear()


class CoverageObjective:
    """Incremental pooled-coverage objective (vectorized).

    The pooled (set) semantics match the paper's reformulation (4): a
    second measurement at an instant already in the set contributes
    nothing (Ψ is a set of time instants).

    Maintains the full marginal-gains array alongside the survival
    products: :meth:`add` recomputes the band of gains its pick
    perturbed (O(window²) element ops, a handful of vector calls) and
    :meth:`gain` is an O(1) array read. See the module docstring for
    why the band is *recomputed* in the initial sweep's exact operation
    order rather than delta-updated — the tie discipline the
    differential tests pin down against the oracle depends on it.
    """

    #: Gains are maintained incrementally, so a :attr:`current_gains`
    #: read costs the greedy loop nothing to re-evaluate.
    maintains_gains = True

    def __init__(
        self,
        period: SchedulingPeriod,
        kernel: CoverageKernel,
        maintain_gains: bool = True,
    ) -> None:
        self.period = period
        self.kernel = kernel
        # ``maintain_gains=False`` skips the O(window²) banded recompute
        # on every add: gains are then computed on demand — batched for
        # a candidate set via :meth:`gains_at`, or as a full sweep on
        # the first :meth:`gains_all`/:attr:`current_gains` read after
        # a mutation. The stochastic greedy runs this way: it only ever
        # looks at O((|T|/B)·log(1/ε)) sampled candidates per pick, so
        # paying the full-band maintenance for them is pure waste.
        self.maintains_gains = bool(maintain_gains)
        band = kernel_band(period, kernel)
        self.window = band.window
        self.weights = band.weights
        self._complement_band = band.complement_band
        self._log_complement_band = band.log_complement_band
        num_instants = period.num_instants
        self._log_survival = np.zeros(num_instants)
        # Survival products live inside a zero-padded buffer so the
        # banded gains recompute can shift by ±d without bounds checks:
        # the padding contributes exact 0.0 terms, which never perturb a
        # float sum. ``survival`` is a live view of the centre, and is
        # maintained *multiplicatively* — elementwise vector multiplies
        # round exactly like the scalar oracle's, so the two
        # objectives' survival products (and hence their exact-tie
        # structure) are bitwise identical given the same picks.
        self._padded_survival = np.zeros(num_instants + 2 * self.window)
        self._padded_survival[self.window : self.window + num_instants] = 1.0
        self.survival = self._padded_survival[
            self.window : self.window + num_instants
        ]
        self._chosen: set[int] = set()
        self._chosen_mask = np.zeros(num_instants, dtype=bool)
        # Shift views into the padded buffer, built once: row k of
        # ``shifts`` sees survival shifted by offset (k - window), so a
        # recompute slices columns instead of re-deriving strides.
        shifts = np.lib.stride_tricks.sliding_window_view(
            self._padded_survival, num_instants
        )
        self._shift_center = shifts[self.window]
        self._shift_left = shifts[self.window - 1 :: -1] if self.window else None
        self._shift_right = shifts[self.window + 1 :] if self.window else None
        # Row j of this view is the survival stretch s_{j-w} … s_{j+w}
        # (live, via the same padded buffer) — :meth:`gains_at` gathers
        # candidate rows from it in one contiguous copy and dots them
        # against the mirrored weight band.
        self._candidate_windows = np.lib.stride_tricks.sliding_window_view(
            self._padded_survival, 2 * self.window + 1
        )
        self._band_weights = self.weights[
            np.abs(np.arange(-self.window, self.window + 1))
        ]
        self._gains = np.empty(num_instants)
        # The recompute walks the band in column blocks through one
        # (window × block) scratch buffer, allocated once, so the hot
        # path allocates nothing. Columns are independent in every pass
        # — the fold tree runs over rows — so blocking never changes a
        # single float operation. Blocks target ~128 KiB of scratch, so
        # the rows stay cache-resident across the add/multiply/fold
        # passes. When an add's 4w+1-column band does not fit that
        # block but its scratch fits in 1 MiB (64 ≤ w ≤ 180), the block
        # is exactly one band wide instead: each add's recompute is then
        # one contiguous block, a handful of long numpy calls that
        # release the GIL, instead of several short ones. The width is
        # exact because a wider buffer makes the band a strided view,
        # which is slower than the ~128 KiB blocks.
        if self.window:
            block = max(64, 16384 // self.window)
            band = 4 * self.window + 1
            if band > block and self.window * band <= _BAND_SCRATCH_FLOATS:
                block = band
            self._block_columns = block
            self._terms_buffer = np.empty((self.window, block))
        else:
            self._block_columns = num_instants
            self._terms_buffer = None
        # Set while an UndoLog's ``with`` block is open: each add then
        # records what it is about to overwrite.
        self._undo_entries: list[_UndoEntry] | None = None
        # When gains are maintained, ``_gains`` is always fresh; when
        # not, it is refreshed lazily on the next full-sweep read.
        self._gains_fresh = False
        if self.maintains_gains:
            self._recompute_gains(0, num_instants)
            self._gains_fresh = True

    def _recompute_gains(self, lo: int, hi: int) -> None:
        """Recompute the maintained gains over instants ``[lo, hi)``.

        ``gain(j) = w_0·s_j + fold_d[w_d·(s_{j-d} + s_{j+d})]`` — the
        summation order is part of the oracle contract (see
        :func:`fold_tree_sum` in the reference module): the neighbour
        pair at each distance is added first, and the distance terms
        are folded with the tail-onto-head halving tree. Per element
        this is the exact operation sequence of the scalar oracle's
        ``gain``, so with bitwise-identical survival the two objectives'
        gains are bitwise identical — including every exact tie, which
        is what the greedy lowest-index tie-break needs to produce
        identical schedules. The tree depends only on the window, never
        on the slice bounds, so a recompute also reproduces untouched
        plateau values bitwise.
        """
        if not self.window:
            segment = self._gains[lo:hi]
            np.multiply(self._shift_center[lo:hi], self.weights[0], out=segment)
            np.copyto(segment, 0.0, where=self._chosen_mask[lo:hi])
            return
        column_weights = self.weights[1:, np.newaxis]
        for block_lo in range(lo, hi, self._block_columns):
            block_hi = min(hi, block_lo + self._block_columns)
            segment = self._gains[block_lo:block_hi]
            np.multiply(
                self._shift_center[block_lo:block_hi], self.weights[0], out=segment
            )
            # Row d-1 pairs the two neighbours at distance d; then fold
            # rows tail-onto-head (``terms[i] += terms[i + rest]``) —
            # O(log window) vector ops, head/tail slices never overlap.
            # The scratch buffer keeps this allocation-free; `out=`
            # changes nothing about the operation order.
            terms = self._terms_buffer[:, : block_hi - block_lo]
            np.add(
                self._shift_left[:, block_lo:block_hi],
                self._shift_right[:, block_lo:block_hi],
                out=terms,
            )
            np.multiply(terms, column_weights, out=terms)
            count = self.window
            while count > 1:
                half = count // 2
                rest = count - half
                terms[:half] += terms[rest:count]
                count = rest
            segment += terms[0]
            np.copyto(segment, 0.0, where=self._chosen_mask[block_lo:block_hi])

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def chosen(self) -> frozenset[int]:
        return frozenset(self._chosen)

    def value(self) -> float:
        """Current objective ``Σ_j (1 - s_j)`` via the log-space state.

        ``s_j = exp(ℓ_j)`` with ``ℓ_j = Σ_{i∈Ψ} log1p(-p_ij)`` — the
        accumulation whose error bound the module docstring derives.
        The differential tests check it against the oracle's plain
        products to 1e-9.
        """
        return float(
            self.period.num_instants - np.exp(self._log_survival).sum()
        )

    def average_coverage(self) -> float:
        """Objective divided by N (the paper's reported metric)."""
        return self.value() / self.period.num_instants

    def coverage_profile(self) -> np.ndarray:
        """Per-instant coverage probabilities ``1 - s_j``."""
        return 1.0 - self.survival

    def _refresh_gains(self) -> None:
        """Bring ``_gains`` up to date (no-op while gains are maintained)."""
        if not self._gains_fresh:
            self._recompute_gains(0, self.period.num_instants)
            self._gains_fresh = True

    @property
    def current_gains(self) -> np.ndarray:
        """The live marginal-gains array (treat as read-only).

        Chosen instants are held at exactly 0.0. Schedulers read this
        directly — copy before mutating. With ``maintain_gains=False``
        the first read after a mutation pays one full-sweep recompute.
        """
        self._refresh_gains()
        return self._gains

    def gain(self, instant_index: int) -> float:
        """Marginal gain of adding ``instant_index``.

        An O(1) array read while gains are maintained; an O(window)
        banded computation otherwise.
        """
        if instant_index in self._chosen:
            return 0.0
        if self._gains_fresh:
            return float(self._gains[instant_index])
        return float(self.gains_at(np.array([instant_index]))[0])

    def gains_at(self, indices: np.ndarray) -> np.ndarray:
        """Marginal gains of ``indices`` only, as a fresh array.

        One row-contiguous gather of the padded survival stretches
        ``s_{j-w} … s_{j+w}`` (the padding supplies exact 0.0 beyond
        the horizon) and one matvec against the mirrored kernel band:
        ``gain(j) = Σ_d w_{|d|} · s_{j+d}``. O(window · |indices|)
        work, independent of the horizon, in two vector calls — this is
        the stochastic greedy's per-pick candidate scoring, where a
        fold-tree evaluation's per-call overhead would dominate the
        pick.

        The dot accumulates in BLAS order, not the oracle-contract fold
        order, so values agree with the maintained array and the scalar
        oracle to a few ulp rather than bitwise. That is the
        deliberate trade: the exact greedy mode never calls this (its
        tie discipline is pinned by :meth:`_recompute_gains`), and the
        stochastic mode's guarantees — seed determinism and
        value-within-ε — survive any fixed rounding of the sampled
        scores.
        """
        idx = np.asarray(indices, dtype=np.intp)
        out = self._candidate_windows[idx] @ self._band_weights
        # Already-chosen instants must read 0.0 (their window dot is the
        # gain of multiplying their probabilities in *again*). Samples
        # rarely contain one — skip the masked store when none do.
        chosen = self._chosen_mask[idx]
        if chosen.any():
            out[chosen] = 0.0
        return out

    def gains_all(self) -> np.ndarray:
        """Marginal gains of every instant (a copy of the gains array).

        Bitwise identical to per-instant :meth:`gain` reads by
        construction.
        """
        self._refresh_gains()
        return self._gains.copy()

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def add(self, instant_index: int) -> float:
        """Add an instant; returns its realized marginal gain.

        Two windowed vector updates — the survival products
        ``s *= 1 - p`` (the gain path, bitwise-pinned to the oracle)
        and the log-space state ``ℓ += log1p(-p)`` (the value
        path) — followed by the banded recompute of the maintained
        gains over :meth:`affected_range`. The update values come from
        the mirrored kernel band; instants outside the support window
        keep s = 1 and ℓ = 0 exactly. Everything is O(window),
        independent of both the horizon length and how many picks came
        before.
        """
        if not 0 <= instant_index < self.period.num_instants:
            raise SchedulingError(f"instant index {instant_index} out of range")
        if instant_index in self._chosen:
            return 0.0
        gain = (
            float(self._gains[instant_index])
            if self._gains_fresh
            else float(self._candidate_windows[instant_index] @ self._band_weights)
        )
        lo = max(0, instant_index - self.window)
        hi = min(self.period.num_instants, instant_index + self.window + 1)
        # band index (j - i) + window for j in [lo, hi): the slice
        # [lo + shift, hi + shift) with shift = window - i.
        shift = self.window - instant_index
        if self._undo_entries is not None:
            gains_lo, gains_hi = self.affected_range(instant_index)
            self._undo_entries.append(
                _UndoEntry(
                    instant_index,
                    lo,
                    self.survival[lo:hi].copy(),
                    self._log_survival[lo:hi].copy(),
                    gains_lo,
                    self._gains[gains_lo:gains_hi].copy()
                    if self.maintains_gains
                    else None,
                )
            )
        self.survival[lo:hi] *= self._complement_band[lo + shift : hi + shift]
        self._log_survival[lo:hi] += self._log_complement_band[
            lo + shift : hi + shift
        ]
        self._chosen.add(instant_index)
        self._chosen_mask[instant_index] = True
        if self.maintains_gains:
            self._recompute_gains(*self.affected_range(instant_index))
        else:
            self._gains_fresh = False
        return gain

    def affected_range(self, instant_index: int) -> tuple[int, int]:
        """Instants whose *gain* changes when ``instant_index`` is added.

        Survival changes within one window; gains read survival within a
        window, so gains change within two.
        """
        lo = max(0, instant_index - 2 * self.window)
        hi = min(self.period.num_instants, instant_index + 2 * self.window + 1)
        return lo, hi


def coverage_of_instants(
    period: SchedulingPeriod,
    kernel: CoverageKernel,
    instants: set[int] | list[int],
) -> float:
    """One-shot objective value of a pooled instant set.

    Instants are added in sorted order so rounding accumulates
    identically run-to-run. Only :meth:`CoverageObjective.value` is
    read, so the objective maintains no gains.
    """
    objective = CoverageObjective(period, kernel, maintain_gains=False)
    for instant_index in sorted(set(instants)):
        objective.add(instant_index)
    return objective.value()


__all__ = [
    "CoverageObjective",
    "KernelBand",
    "UndoLog",
    "coverage_of_instants",
    "kernel_band",
]
