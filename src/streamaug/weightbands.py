"""Exact geometric weight banding.

Band boundaries are powers p^j/q^j of a rational base p/q, kept as the two
ints so that integer weights near a boundary are always classified exactly;
a float logarithm is at most a starting guess that exact powers then correct.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot band with a non-finite value {x}")
        return Fraction(*x.as_integer_ratio())
    raise TypeError(f"cannot band with base of type {type(x).__name__}")


def check_epsilon(epsilon) -> Fraction:
    """epsilon as a Fraction, refused unless it lies in (0, 1]."""
    eps = as_fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    return eps


class GeometricBands:
    """Assigns positive integer weights to bands [base^j, base^(j+1))."""

    def __init__(self, base):
        base = as_fraction(base)
        if base <= 1:
            raise ValueError(f"band base must exceed 1, got {base}")
        self.base = base
        # For integer weights, w >= base^j iff w >= ceil(base^j), so the
        # hot path can bisect plain ints.
        self._floors: list[int] = [1]

    def _grow(self, w: int) -> None:
        p, q = self.base.numerator, self.base.denominator
        num, den = p ** (len(self._floors) - 1), q ** (len(self._floors) - 1)
        while self._floors[-1] <= w:
            num, den = num * p, den * q
            self._floors.append(-(-num // den))

    def index(self, w: int) -> int:
        if w < 1:
            raise ValueError(f"band index needs weight >= 1, got {w}")
        if w >= self._floors[-1]:
            self._grow(w)
        return bisect_right(self._floors, w) - 1

    def lower(self, j: int) -> Fraction:
        """Inclusive lower boundary base^j of band j."""
        if j < 0:
            raise ValueError(f"band index must be >= 0, got {j}")
        return self.base**j

    def contains(self, j: int, w: int) -> bool:
        return self.lower(j) <= w < self.lower(j + 1)


def _ln(x: Fraction) -> float:  # from the ints, since x itself may not fit a float
    return math.log(x.numerator) - math.log(x.denominator)


def ceil_power_index(base, target) -> int:
    """Smallest integer b >= 0 with base^b >= target: a float guess, stepped on exact powers."""
    base, target = as_fraction(base), as_fraction(target)
    if base <= 1:
        raise ValueError("base must exceed 1")
    b = max(0, math.ceil(_ln(max(target, Fraction(1))) / _ln(base)))
    while b > 0 and base ** (b - 1) >= target:
        b -= 1
    while base**b < target:
        b += 1
    return b
