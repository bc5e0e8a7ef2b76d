"""Kernel-weight validation regressions.

These pin the ``log1p(-p)`` trap: a kernel returning p = 1 at nonzero
distance used to silently write −inf into the survival state; the
objective and its oracle must now refuse it with a
:class:`~repro.common.errors.KernelValidationError` naming the kernel
and the offending distance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import KernelValidationError
from repro.core.scheduling import (
    CoverageObjective,
    GaussianKernel,
    SchedulingPeriod,
    TriangularKernel,
    validate_kernel_weights,
)
from repro.core.scheduling.reference import ReferenceCoverageObjective

PERIOD = SchedulingPeriod(0.0, 600.0, 64)


class StubKernel:
    """Kernel emitting a fixed off-diagonal probability."""

    def __init__(self, off_diagonal: float) -> None:
        self.off_diagonal = off_diagonal

    def probability(self, distance: float) -> float:
        return 1.0 if distance == 0.0 else float(self.off_diagonal)

    def support(self) -> float:
        return 30.0


class TestKernelValidation:
    @pytest.mark.parametrize(
        "bad", [1.0, 1.5, -0.25, float("nan")], ids=["one", "big", "neg", "nan"]
    )
    def test_numpy_backend_rejects_bad_off_diagonal(self, bad):
        with pytest.raises(KernelValidationError) as excinfo:
            CoverageObjective(PERIOD, StubKernel(bad))
        message = str(excinfo.value)
        assert "StubKernel" in message
        assert "at distance" in message
        assert "[0, 1)" in message

    @pytest.mark.parametrize(
        "bad", [1.0, 1.5, -0.25, float("nan")], ids=["one", "big", "neg", "nan"]
    )
    def test_reference_backend_rejects_bad_off_diagonal(self, bad):
        with pytest.raises(KernelValidationError):
            ReferenceCoverageObjective(PERIOD, StubKernel(bad))

    def test_diagonal_probability_of_one_is_legal(self):
        """p(0) = 1 is the spec — the −inf on the diagonal is deliberate."""
        objective = CoverageObjective(PERIOD, StubKernel(0.999))
        reference = ReferenceCoverageObjective(PERIOD, StubKernel(0.999))
        assert objective.add(3) == reference.add(3)
        assert objective.value() == pytest.approx(reference.value(), rel=1e-9)

    def test_error_names_the_offending_distance(self):
        kernel = StubKernel(1.0)
        with pytest.raises(KernelValidationError, match="at distance 20s"):
            validate_kernel_weights([1.0, 0.5, 1.0], kernel, 10.0)

    def test_valid_kernels_pass(self):
        validate_kernel_weights(
            [1.0, 0.5, 0.0], GaussianKernel(sigma=45.0), 10.0
        )
        validate_kernel_weights(
            np.array([1.0, 0.999999]), TriangularKernel(width=90.0), 10.0
        )
