"""GF(256) arithmetic with the QR-code primitive polynomial 0x11d.

Multiplication and division run through exp/log tables built once at
import time; polynomial helpers operate on coefficient lists with the
highest-degree coefficient first (the usual Reed–Solomon convention).
"""

from __future__ import annotations

from repro.common.errors import BarcodeError

_PRIMITIVE_POLY = 0x11D
FIELD_SIZE = 256

# exp table is doubled so gf_mul can skip the modulo 255.
GF_EXP = [0] * 512
GF_LOG = [0] * 256


def _build_tables() -> None:
    value = 1
    for power in range(255):
        GF_EXP[power] = value
        GF_LOG[value] = power
        value <<= 1
        if value & 0x100:
            value ^= _PRIMITIVE_POLY
    for power in range(255, 512):
        GF_EXP[power] = GF_EXP[power - 255]


_build_tables()


def gf_add(a: int, b: int) -> int:
    """Addition in GF(256) is XOR."""
    return a ^ b


def gf_mul(a: int, b: int) -> int:
    """Multiply two field elements."""
    if a == 0 or b == 0:
        return 0
    return GF_EXP[GF_LOG[a] + GF_LOG[b]]


def gf_div(a: int, b: int) -> int:
    """Divide ``a`` by ``b``; division by zero raises."""
    if b == 0:
        raise BarcodeError("division by zero in GF(256)")
    if a == 0:
        return 0
    return GF_EXP[(GF_LOG[a] - GF_LOG[b]) % 255]


def gf_pow(a: int, power: int) -> int:
    """Raise ``a`` to an integer power (negative powers allowed)."""
    if a == 0:
        if power == 0:
            return 1
        if power < 0:
            raise BarcodeError("0 has no negative powers in GF(256)")
        return 0
    return GF_EXP[(GF_LOG[a] * power) % 255]


def gf_inverse(a: int) -> int:
    """Multiplicative inverse of ``a``."""
    if a == 0:
        raise BarcodeError("0 has no inverse in GF(256)")
    return GF_EXP[255 - GF_LOG[a]]


# ----------------------------------------------------------------------
# polynomials (highest-degree coefficient first)
# ----------------------------------------------------------------------
def poly_scale(poly: list[int], scalar: int) -> list[int]:
    """Multiply every coefficient by ``scalar``."""
    return [gf_mul(coefficient, scalar) for coefficient in poly]


def poly_add(a: list[int], b: list[int]) -> list[int]:
    """Add two polynomials."""
    result = [0] * max(len(a), len(b))
    for index, coefficient in enumerate(a):
        result[index + len(result) - len(a)] = coefficient
    for index, coefficient in enumerate(b):
        result[index + len(result) - len(b)] ^= coefficient
    return result


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Multiply two polynomials."""
    result = [0] * (len(a) + len(b) - 1)
    for i, coefficient_a in enumerate(a):
        if coefficient_a == 0:
            continue
        for j, coefficient_b in enumerate(b):
            result[i + j] ^= gf_mul(coefficient_a, coefficient_b)
    return result


def poly_eval(poly: list[int], x: int) -> int:
    """Evaluate a polynomial at ``x`` with Horner's rule."""
    result = poly[0]
    for coefficient in poly[1:]:
        result = gf_mul(result, x) ^ coefficient
    return result


def poly_divmod(dividend: list[int], divisor: list[int]) -> tuple[list[int], list[int]]:
    """Polynomial division; returns ``(quotient, remainder)``."""
    output = list(dividend)
    normalizer = divisor[0]
    for i in range(len(dividend) - len(divisor) + 1):
        output[i] = gf_div(output[i], normalizer)
        coefficient = output[i]
        if coefficient != 0:
            for j in range(1, len(divisor)):
                output[i + j] ^= gf_mul(divisor[j], coefficient)
    separator = len(dividend) - len(divisor) + 1
    return output[:separator], output[separator:]
