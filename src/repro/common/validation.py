"""Small argument-validation helpers.

These keep constructor bodies readable: one line per invariant, all
raising :class:`~repro.common.errors.ValidationError` with a uniform
message format.
"""

from __future__ import annotations

import math
from collections.abc import Sized
from typing import Any, TypeVar

from repro.common.errors import ValidationError

T = TypeVar("T")


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValidationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ValidationError(message)


def require_positive(value: float, name: str) -> float:
    """Require ``0 < value < inf`` (so not NaN either) and return it."""
    if not 0 < value < math.inf:
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    return value


def require_in_range(
    value: float, name: str, low: float, high: float, *, inclusive: bool = True
) -> float:
    """Require ``low <= value <= high`` (or strict bounds) and return it."""
    if inclusive:
        ok = low <= value <= high
    else:
        ok = low < value < high
    if not ok:
        raise ValidationError(
            f"{name} must be in [{low}, {high}]"
            f"{'' if inclusive else ' (exclusive)'}, got {value!r}"
        )
    return value


def require_non_empty(value: Sized, name: str) -> Sized:
    """Require a non-empty sized collection and return it."""
    if len(value) == 0:
        raise ValidationError(f"{name} must not be empty")
    return value


def require_type(value: Any, expected: type[T], name: str) -> T:
    """Require ``isinstance(value, expected)`` and return the value."""
    if not isinstance(value, expected):
        raise ValidationError(
            f"{name} must be {expected.__name__}, got {type(value).__name__}"
        )
    return value
