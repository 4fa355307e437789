"""Small exact-arithmetic helpers used throughout the package."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

ZERO = Fraction(0)
ONE = Fraction(1)


def pow2(n: int) -> Fraction:
    """2**(-n) as an exact rational, for n >= 0."""
    if n < 0:
        raise ValueError("negative length")
    return Fraction(1, 1 << n)


def dyadic_sum(lengths: Iterable[int]) -> Fraction:
    """sum(2**(-r)) exactly: ints scaled by 2**max(r), divided once at the end."""
    lengths = list(lengths)
    top = max([0, *lengths])
    return Fraction(sum(1 << (top - r) for r in lengths), 1 << top)


def floor_log2(n: int) -> int:
    if n <= 0:
        raise ValueError("floor_log2 needs a positive argument")
    return n.bit_length() - 1


def least_length(v: Fraction) -> int:
    """Least r >= 0 with 2**(-r) <= v, for a positive rational v <= 1."""
    if v <= 0:
        raise ValueError("least_length needs a positive value")
    p, q = v.numerator, v.denominator
    if p >= q:
        return 0
    r = q.bit_length() - p.bit_length()  # p << r has q's bit length
    return r if p << r >= q else r + 1


def cantor_pair(x: int, i: int) -> int:
    """Monotone pairing with pair(x, i) >= x; the default change-set pairing."""
    s = x + i
    return s * (s + 1) // 2 + x


def cantor_unpair(p: int) -> tuple[int, int]:
    """Inverse of cantor_pair on the naturals."""
    m = (math.isqrt(8 * p + 1) - 1) // 2  # greatest m with m(m+1)/2 <= p
    x = p - m * (m + 1) // 2
    return x, m - x


def triple_pair(e: int, v: int, m: int) -> int:
    """Iterated Cantor pairing of a triple."""
    return cantor_pair(cantor_pair(e, v), m)


def bits_to_nat(bits: str) -> int:
    """Standard length-lexicographic coding of binary strings into naturals."""
    if bits and set(bits) - {"0", "1"}:
        raise ValueError("not a bit string")
    return int("1" + bits, 2) - 1


def drop_trailing_zeros(bits: str) -> str:
    """Longest prefix ending in 1 (empty if the string has no 1)."""
    i = bits.rfind("1")
    return bits[: i + 1]
