"""Representation counts on the shifted scalar-matrix line.

The scalar line is the rank-1 positive-definite lattice {a*I : a in Z} with
Q(a*I) = N*a**2; its dual is (1/2N)Z*I.  Counting vectors of a given norm in
a dual coset is an integer-square test, never a loop.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .arith import _check_level


def scalar_rep_count(level: int, value: Fraction | int, residue: int) -> int:
    """Number of vectors of norm `value` in the coset (residue/2N)*I + Z*I.

    Equals #{k in Z : (residue + 2*N*k)**2 == 4*N*value}.  `value` must be
    nonnegative with denominator dividing 4N.  The count is 0, 1 or 2: a
    rank-1 definite lattice represents any value by at most two vectors.
    """
    _check_level(level)
    two_n = 2 * level
    v = value if isinstance(value, (int, Fraction)) else Fraction(value)
    n, rem = divmod(v.numerator * 2 * two_n, v.denominator)
    if rem:
        raise ValueError("value must have denominator dividing 4*level")
    if n < 0:
        raise ValueError("value must be nonnegative")
    if n == 0:
        return 1 if residue % two_n == 0 else 0
    s = isqrt(n)
    if s * s != n:
        return 0
    count = 0
    if (s - residue) % two_n == 0:
        count += 1
    if (-s - residue) % two_n == 0:
        count += 1
    return count
