"""Indices, cusps, elliptic points and genera of the congruence groups in play.

Three curves matter: X_0(N), its Fricke quotient at prime level, and the
torsion-free cover cut out by the subgroup of SL2(Z) with b = 0 mod 2,
c = 0 mod 2N, d = 1 mod 2N.  The cover's data is computed by explicit
enumeration of its image in SL2(Z/2N); the enumeration doubles as its own
oracle, so a level guard protects memory rather than correctness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from . import arith
from .heegner import class_number

DEFAULT_MAX_ENUM_LEVEL = 120


class LevelBoundError(ValueError):
    """Level exceeds the enumeration guard, or the factoring bound with a composite part left unsplit."""


def _level_factors(n: int) -> dict[int, int]:
    factors, cofactor = arith.factor(n)
    if cofactor > 1:
        raise LevelBoundError(
            "level %d has a composite factor of %d digits above the factoring bound"
            % (n, len(str(cofactor)))
        )
    return factors


def sl2_order(m: int) -> int:
    """|SL2(Z/m)| = m**3 * prod(1 - 1/p**2)."""
    if m < 1:
        raise ValueError("modulus must be positive")
    order = m**3
    for p in _level_factors(m):
        order = order // (p * p) * (p * p - 1)
    return order


def psl2_order(m: int) -> int:
    # -I = I in SL2(Z/2), so no halving below level 3
    return sl2_order(m) if m <= 2 else sl2_order(m) // 2


@dataclass(frozen=True)
class CurveProfile:
    label: str
    level: int
    index: int
    nu2: int
    nu3: int
    cusps: int
    genus: int

    def __post_init__(self) -> None:
        g = (
            Fraction(1)
            + Fraction(self.index, 12)
            - Fraction(self.nu2, 4)
            - Fraction(self.nu3, 3)
            - Fraction(self.cusps, 2)
        )
        if g != self.genus:
            raise ValueError("genus inconsistent with index/elliptic/cusp data")


@functools.lru_cache(maxsize=None)
def x0_profile(level: int) -> CurveProfile:
    """Classical index, elliptic-point, cusp and genus data of X_0(N)."""
    if level < 1:
        raise ValueError("level must be a positive integer")
    n = level
    factors = _level_factors(n)
    index = n
    for p in factors:
        index = index // p * (p + 1)
    # nu2 = prod(1 + (-4/p)) unless 4 | N, nu3 = prod(1 + (-3/p)) unless 9 | N
    nu2 = 0 if n % 4 == 0 else prod(2 if p % 4 == 1 else 0 for p in factors if p != 2)
    nu3 = 0 if n % 9 == 0 else prod(2 if p % 3 == 1 else 0 for p in factors if p != 3)
    # cusps = sum over d | N of phi(gcd(d, N/d)), multiplicative in N: at
    # p^e || N the divisors p^i contribute phi(p^min(i, e - i))
    cusps = 1
    for p, e in factors.items():
        local = 0
        for i in range(e + 1):
            k = min(i, e - i)
            local += p ** (k - 1) * (p - 1) if k else 1
        cusps *= local
    genus = Fraction(1) + Fraction(index, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(cusps, 2)
    assert genus.denominator == 1
    return CurveProfile("x0", n, index, nu2, nu3, cusps, int(genus))


def _pm_canon(v: tuple[int, ...], m: int) -> tuple[int, ...]:
    return min(v, tuple((-x) % m for x in v))


def _cover_image(m: int) -> list[tuple[int, int, int, int]]:
    # image in SL2(Z/m) of the subgroup {b = 0 (2), c = 0 (m), d = 1 (m)};
    # c and d are pinned mod m, so enumerate the (a, b) plane and keep det = 1
    img = []
    for a in range(m):
        for b in range(0, m, 2):
            if (a * 1 - b * 0) % m == 1 % m:
                img.append((a, b % m, 0, 1 % m))
    return img


@functools.lru_cache(maxsize=None)
def cover_profile(level: int, max_enum_level: int = DEFAULT_MAX_ENUM_LEVEL) -> CurveProfile:
    """Profile of the torsion-free cover curve at the given level.

    The group is the intersection of the standard congruence conditions
    b = 0 mod 2, c = 0 mod 2N, d = 1 mod 2N inside SL2(Z).  Its image mod 2N
    is enumerated explicitly; the index is |PSL2(Z/2N)| over the mod-plus-minus
    image size, cusps are orbits of the image on +-primitive vector pairs, and
    the absence of elliptic elements is certified by a trace scan.
    """
    if level < 1:
        raise ValueError("level must be a positive integer")
    m = 2 * level
    if m > max_enum_level:
        raise LevelBoundError(
            "enumeration level %d exceeds the guard %d" % (m, max_enum_level)
        )
    img = _cover_image(m)
    if m <= 2:
        pm_size = len({g for g in img})
    else:
        pm_size = len({_pm_canon(g, m) for g in img})
    index = psl2_order(m) // pm_size

    pairs = sorted(
        {
            _pm_canon((p, q), m)
            for p in range(m)
            for q in range(m)
            if gcd(gcd(p, q), m) == 1
        }
    )
    seen: set[tuple[int, ...]] = set()
    cusps = 0
    for v in pairs:
        if v in seen:
            continue
        cusps += 1
        for (a, b, c, d) in img:
            w = ((a * v[0] + b * v[1]) % m, (c * v[0] + d * v[1]) % m)
            seen.add(_pm_canon(w, m))

    nu2, nu3 = _cover_elliptic_counts(level)
    genus = Fraction(1) + Fraction(index, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(cusps, 2)
    assert genus.denominator == 1 and genus >= 0
    return CurveProfile("xn", level, index, nu2, nu3, cusps, int(genus))


def _cover_elliptic_counts(level: int) -> tuple[int, int]:
    # elliptic elements of order 2 (resp. 3) reduce to trace 0 (resp. +-1);
    # scanning mod 2N suffices for N >= 2, while N = 1 needs level 4 because
    # trace 0 and 2 coincide mod 2
    if level == 1:
        m = 4
        candidates = [
            (a, b, c, d)
            for a in range(m)
            for b in range(m)
            for c in range(m)
            for d in range(m)
            if a % 2 == 1 and d % 2 == 1 and b % 2 == 0 and c % 2 == 0
            and (a * d - b * c) % m == 1
        ]
    else:
        m = 2 * level
        candidates = _cover_image(m)
    traces = set()
    for (a, b, c, d) in candidates:
        traces.add((a + d) % m)
        traces.add((-(a + d)) % m)
    nu2 = 0 if 0 not in traces else None
    nu3 = 0 if (1 not in traces and (m - 1) not in traces) else None
    if nu2 is None or nu3 is None:
        raise RuntimeError("trace scan could not certify torsion-freeness at level %d" % level)
    return nu2, nu3


@functools.lru_cache(maxsize=None)
def fricke_quotient_genus(p: int) -> int:
    """Genus of the quotient of X_0(p) by its Fricke involution, p prime.

    Riemann-Hurwitz with the classical fixed-point count: nu = h(-4p) for
    p = 1 mod 4 and h(-4p) + h(-p) for p = 3 mod 4, p > 3; the levels 2 and 3
    are genus 0 outright.
    """
    if not arith.is_prime(p):
        raise ValueError("p must be prime")
    if p in (2, 3):
        return 0
    g0 = x0_profile(p).genus
    nu = class_number(4 * p)
    if p % 4 == 3:
        nu += class_number(p)
    numerator = 2 * g0 + 2 - nu
    if numerator % 4 != 0 or numerator < 0:
        raise RuntimeError("inconsistent fixed-point count at p = %d" % p)
    return numerator // 4


def minus_newspace_dim(p: int) -> int:
    """Dimension of the weight-2 newspace with odd functional equation at prime level.

    At prime level this equals the genus of the Fricke quotient, since the
    differentials downstairs pull back to exactly the invariant forms.
    Composite levels are rejected; they are served by the newform client.
    """
    if not arith.is_prime(p):
        raise ValueError("level must be prime; composite levels go through the newform database")
    return fricke_quotient_genus(p)


def cover_degree_over_x0(level: int) -> int:
    """Degree of the natural projection from the cover curve to X_0(N)."""
    num = cover_profile(level).index
    den = x0_profile(level).index
    if num % den != 0:
        raise RuntimeError("index ratio is not integral at level %d" % level)
    return num // den
