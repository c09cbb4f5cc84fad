"""Exact integer and rational primitives shared by every other module.

Rational values are plain :class:`fractions.Fraction` objects (arbitrary
precision, always in canonical lowest terms, denominator > 0).  A "real value"
anywhere in this package is either a ``Fraction`` (exact) or a ``float``;
mixed arithmetic promotes exact values to float, never the reverse, which is
exactly Python's built-in behaviour for ``Fraction <op> float``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Union

Real = Union[Fraction, float]


def falling_factorial(x: int, q: int) -> int:
    """(x)_q = x (x-1) ... (x-q+1); the empty product (q=0) is 1.

    Total over all integer x: negative x is evaluated by the product
    definition, and 0 <= x < q yields 0.
    """
    if q < 0:
        raise ValueError("falling_factorial requires q >= 0")
    out = 1
    for j in range(q):
        out *= x - j
        if out == 0:
            return 0
    return out


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the out-of-range convention C(n, k) = 0
    for k < 0 or k > n."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def parse_fraction(text: str) -> Fraction:
    """Parse "1/2", "3/4", "0.5" ... into an exact Fraction."""
    return Fraction(text.strip())
