"""Indices, cusps, elliptic points and genera of the congruence groups in play.

Three curves matter: X_0(N), its Fricke quotient at prime level, and the
torsion-free cover cut out by the subgroup of SL2(Z) with b = 0 mod 2,
c = 0 mod 2N, d = 1 mod 2N.  The data of X_0(N) and of the cover are closed
forms in the factorization of the level, so they cost what factoring the
level costs; the only levels refused are those above the factoring bound
whose composite part stays unsplit.  Only `cover_profile` is cached, in a
bounded `lru_cache`; the rest is recomputed per call.
"""

from __future__ import annotations

import functools
from math import prod

from . import arith
from .heegner import class_number


class LevelBoundError(ValueError):
    """Level above the factoring bound with a composite part left unsplit."""


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


def _genus(index: int, nu2: int, nu3: int, cusps: int) -> int:
    # 12(g - 1) = index - 3*nu2 - 4*nu3 - 6*cusps
    genus, rem = divmod(12 + index - 3 * nu2 - 4 * nu3 - 6 * cusps, 12)
    if rem or genus < 0:
        raise ValueError("genus inconsistent with index/elliptic/cusp data")
    return genus


class CurveProfile(arith._Record):
    _fields = ("label", "level", "index", "nu2", "nu3", "cusps", "genus")

    def __init__(self, label: str, level: int, index: int, nu2: int, nu3: int, cusps: int, genus: int) -> None:
        if _genus(index, nu2, nu3, cusps) != genus:
            raise ValueError("genus inconsistent with index/elliptic/cusp data")
        self.__dict__.update(label=label, level=level, index=index, nu2=nu2, nu3=nu3, cusps=cusps, genus=genus)


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
    cusps = prod(sum(arith.phi({p: min(i, e - i)}) for i in range(e + 1)) for p, e in factors.items())
    return CurveProfile("x0", n, index, nu2, nu3, cusps, _genus(index, nu2, nu3, cusps))


@functools.lru_cache(maxsize=256)
def cover_profile(level: int) -> CurveProfile:
    """Profile of the torsion-free cover curve at the given level.

    The group is cut out of SL2(Z) by b = 0 mod 2, c = 0 mod 2N, d = 1 mod 2N;
    conjugating by diag(2, 1) gives Gamma_H(4N) with H = {1, 2N + 1}.  Its
    image mod 2N is {(1, b; 0, 1) : b even}, N elements, none equal to -I for
    N >= 2, so the index is |PSL2(Z/2N)| / N.  The group lies in Gamma_0(4),
    which has no elliptic points, so nu2 = nu3 = 0.
    """
    if level < 1:
        raise ValueError("level must be a positive integer")
    factors = _level_factors(level)  # so that a refusal names N, not 2N
    index = psl2_order(2 * level) // level
    if level == 1:
        cusps = 3  # -I lies in the group, the three cusps of Gamma(2)
    else:
        # cusps = sum over d | 2N of phi(d) * phi(2N/d) * gcd(d, N) / d,
        # multiplicative in 2N: at p^e || 2N the divisors p^i contribute
        # phi(p^i) * phi(p^(e - i)), halved at p = 2, i = e.  That term can
        # be a half-integer, so count twice the cusps and halve once.
        twice = 1
        for p, e in {**factors, 2: factors.get(2, 0) + 1}.items():
            local = sum(arith.phi({p: i}) * arith.phi({p: e - i}) for i in range(e + 1))
            twice *= 2 * local - arith.phi({p: e}) if p == 2 else local
        cusps, odd = divmod(twice, 2)
        assert odd == 0
    return CurveProfile("xn", level, index, 0, 0, cusps, _genus(index, 0, 0, cusps))


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
