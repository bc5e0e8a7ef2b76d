"""Coverage kernels: the probability a measurement at t_i covers t_j.

The paper uses "a bell-shaped Gaussian distribution N(μ, σ)" with μ = 0:
a measurement at ``t_i`` covers ``t_j`` with a probability that equals 1
at zero distance and decays bell-shaped with ``|t_i - t_j|``. A large σ
models slowly changing features (temperature, humidity); a small σ fast
ones (acceleration, orientation). The paper notes "our algorithm is
general enough such that other distribution models can also be applied",
so the kernel is a pluggable protocol and two alternatives are provided.
"""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

from repro.common.errors import KernelValidationError
from repro.common.validation import require_positive


@runtime_checkable
class CoverageKernel(Protocol):
    """Maps a time distance (seconds, ≥ 0) to a coverage probability.

    An objective reads a kernel once, when it is built: it samples
    ``probability`` at each multiple of the instant spacing inside
    ``support`` into its own kernel band.
    """

    def probability(self, distance: float) -> float:
        """Coverage probability at ``distance``; must be 1 at 0 and non-increasing."""
        ...

    def support(self) -> float:
        """A distance beyond which the probability is negligible (< 1e-9).

        Used to bound the kernel band each objective builds; kernels
        with unbounded support return the distance where they fall below
        1e-9.
        """
        ...


def validate_kernel_weights(
    weights, kernel: CoverageKernel, spacing: float
) -> None:
    """Reject kernel probabilities the survival state cannot represent.

    ``weights[d]`` is the kernel's probability at distance ``d·spacing``.
    The diagonal (d = 0) may be exactly 1 — a measurement fully covers
    its own instant and the log-space state carries the resulting −inf
    deliberately. Off the diagonal a probability of 1 would make
    ``log1p(-p) = -inf`` too, silently zeroing every survival product it
    touches, so the objective and its oracle both require p ∈ [0, 1)
    there (and p ∈ [0, 1] at d = 0). NaN and out-of-range values raise
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


class GaussianKernel:
    """``p(d) = exp(-d² / 2σ²)`` — the paper's default."""

    def __init__(self, sigma: float) -> None:
        self.sigma = require_positive(sigma, "sigma")

    def probability(self, distance: float) -> float:
        """exp(-d^2 / 2 sigma^2)."""
        return math.exp(-(distance * distance) / (2.0 * self.sigma * self.sigma))

    def support(self) -> float:
        # exp(-d²/2σ²) < 1e-9  ⇔  d > σ·sqrt(2·ln 1e9)
        """Distance beyond which the probability drops under 1e-9."""
        return self.sigma * math.sqrt(2.0 * math.log(1e9))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GaussianKernel(sigma={self.sigma})"


class TriangularKernel:
    """``p(d) = max(0, 1 - d/width)`` — compact support, linear decay."""

    def __init__(self, width: float) -> None:
        self.width = require_positive(width, "width")

    def probability(self, distance: float) -> float:
        """max(0, 1 - d/width)."""
        return max(0.0, 1.0 - distance / self.width)

    def support(self) -> float:
        """The kernel width (exact support)."""
        return self.width

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TriangularKernel(width={self.width})"


class ExponentialKernel:
    """``p(d) = exp(-d/scale)`` — heavier tail than Gaussian."""

    def __init__(self, scale: float) -> None:
        self.scale = require_positive(scale, "scale")

    def probability(self, distance: float) -> float:
        """exp(-d / scale)."""
        return math.exp(-distance / self.scale)

    def support(self) -> float:
        """Distance beyond which the probability drops under 1e-9."""
        return self.scale * math.log(1e9)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExponentialKernel(scale={self.scale})"
