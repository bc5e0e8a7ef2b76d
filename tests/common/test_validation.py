"""Tests for repro.common.validation."""

import pytest

from repro.common.errors import ValidationError
from repro.common.validation import (
    require,
    require_in_range,
    require_non_empty,
    require_positive,
    require_type,
)


class TestRequire:
    def test_passes_on_true(self):
        require(True, "never shown")

    def test_raises_on_false(self):
        with pytest.raises(ValidationError, match="boom"):
            require(False, "boom")


class TestRequirePositive:
    def test_returns_value(self):
        assert require_positive(2.5, "x") == 2.5

    @pytest.mark.parametrize("bad", [0, -1, -0.001, float("inf"), float("nan")])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValidationError, match="x"):
            require_positive(bad, "x")


class TestRequireInRange:
    def test_inclusive_bounds(self):
        assert require_in_range(0.0, "p", 0.0, 1.0) == 0.0
        assert require_in_range(1.0, "p", 0.0, 1.0) == 1.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValidationError):
            require_in_range(0.0, "p", 0.0, 1.0, inclusive=False)

    def test_rejects_outside(self):
        with pytest.raises(ValidationError):
            require_in_range(1.5, "p", 0.0, 1.0)


class TestRequireNonEmpty:
    def test_accepts_non_empty(self):
        assert require_non_empty([1], "xs") == [1]

    @pytest.mark.parametrize("empty", [[], "", {}, ()])
    def test_rejects_empty(self, empty):
        with pytest.raises(ValidationError):
            require_non_empty(empty, "xs")


class TestRequireType:
    def test_accepts_instance(self):
        assert require_type("s", str, "x") == "s"

    def test_rejects_wrong_type(self):
        with pytest.raises(ValidationError, match="must be str"):
            require_type(1, str, "x")
