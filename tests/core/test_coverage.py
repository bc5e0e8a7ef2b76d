"""Tests for coverage kernels."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ValidationError
from repro.core.scheduling import ExponentialKernel, GaussianKernel, TriangularKernel

KERNELS = [GaussianKernel(10.0), TriangularKernel(25.0), ExponentialKernel(8.0)]


@pytest.mark.parametrize(
    "kernel_class", [GaussianKernel, TriangularKernel, ExponentialKernel]
)
def test_infinite_parameter_rejected(kernel_class):
    with pytest.raises(ValidationError, match="finite"):
        kernel_class(float("inf"))


class TestKernelContract:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_probability_one_at_zero(self, kernel):
        assert kernel.probability(0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_non_increasing(self, kernel):
        distances = [0.0, 1.0, 5.0, 10.0, 50.0, 200.0]
        values = [kernel.probability(d) for d in distances]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_negligible_beyond_support(self, kernel):
        assert kernel.probability(kernel.support() * 1.01) < 1e-8

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_values_are_probabilities(self, kernel):
        for distance in (0.0, 0.5, 3.0, 42.0):
            assert 0.0 <= kernel.probability(distance) <= 1.0


class TestGaussian:
    def test_matches_formula(self):
        kernel = GaussianKernel(sigma=10.0)
        import math

        assert kernel.probability(10.0) == pytest.approx(math.exp(-0.5))

    def test_sigma_scales_width(self):
        narrow, wide = GaussianKernel(5.0), GaussianKernel(50.0)
        assert narrow.probability(20.0) < wide.probability(20.0)

    @given(sigma=st.floats(0.1, 1000), distance=st.floats(0, 10_000))
    def test_always_valid_probability(self, sigma, distance):
        assert 0.0 <= GaussianKernel(sigma).probability(distance) <= 1.0

    def test_rejects_non_positive_sigma(self):
        with pytest.raises(ValidationError):
            GaussianKernel(0.0)


class TestTriangular:
    def test_exact_zero_beyond_width(self):
        assert TriangularKernel(10.0).probability(10.0) == 0.0
        assert TriangularKernel(10.0).probability(11.0) == 0.0

    def test_linear_midpoint(self):
        assert TriangularKernel(10.0).probability(5.0) == pytest.approx(0.5)
