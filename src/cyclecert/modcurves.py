"""Indices, cusps, elliptic points and genera of the congruence groups in play.

Three curves matter: X_0(N), its Fricke quotient at prime level, and the
torsion-free cover cut out by the subgroup of SL2(Z) with b = 0 mod 2,
c = 0 mod 2N, d = 1 mod 2N.  The data of X_0(N) and of the cover are closed
forms in the factorization of the level, each factored once, so they cost
what factoring the level costs; the only levels refused are those above the
factoring bound whose composite part stays unsplit.  The cover curve's degree
over X_0(N) is 6 at N = 1, 4*phi(N) for even N and 3*phi(N) for odd N > 1.
Only `cover_profile` is cached, in a bounded `lru_cache`; the rest is
recomputed per call.
"""

from __future__ import annotations

import functools
from math import prod

from . import arith
from .arith import LevelBoundError  # re-exported, so modcurves.LevelBoundError is the same class
from .heegner import class_number


def _genus(index: int, nu2: int, nu3: int, cusps: int) -> int:
    # 12(g - 1) = index - 3*nu2 - 4*nu3 - 6*cusps
    genus, rem = divmod(12 + index - 3 * nu2 - 4 * nu3 - 6 * cusps, 12)
    if rem or genus < 0:
        raise ValueError("genus inconsistent with index/elliptic/cusp data")
    return genus


class CurveProfile(arith._Record):
    """Index, elliptic-point and cusp counts of a modular curve, and the genus they give.

    The label is a `str`, the level passes `arith._check_level` and the
    counts are `int`s, not `bool`s, else ValueError.  The genus comes from
    the Riemann-Hurwitz formula; counts that give no nonnegative integer genus
    raise ValueError.
    """

    _fields = ("label", "level", "index", "nu2", "nu3", "cusps", "genus")

    def __init__(self, label: str, level: int, index: int, nu2: int, nu3: int, cusps: int) -> None:
        if type(label) is not str:
            raise ValueError("label must be a string")
        arith._check_level(level)
        if {type(index), type(nu2), type(nu3), type(cusps)} != {int}:
            raise ValueError("index, nu2, nu3 and cusps must be integers")
        self._store(label, level, index, nu2, nu3, cusps, _genus(index, nu2, nu3, cusps))


def x0_profile(level: int) -> CurveProfile:
    """Classical index, elliptic-point, cusp and genus data of X_0(N)."""
    n = level
    factors = arith._level_factors(n)
    index = n
    for p in factors:
        index = index // p * (p + 1)
    # nu2 = prod(1 + (-4/p)) unless 4 | N, nu3 = prod(1 + (-3/p)) unless 9 | N
    nu2 = 0 if n % 4 == 0 else prod(2 if p % 4 == 1 else 0 for p in factors if p != 2)
    nu3 = 0 if n % 9 == 0 else prod(2 if p % 3 == 1 else 0 for p in factors if p != 3)
    # cusps = sum over d | N of phi(gcd(d, N/d)), multiplicative in N: at p^e || N
    # the divisors p^i contribute phi(p^min(i, e - i)), in all 2p^k at e = 2k + 1
    # and p^(k-1)(p + 1) at e = 2k
    cusps = prod(2 * p ** (e // 2) if e % 2 else p ** (e // 2 - 1) * (p + 1) for p, e in factors.items())
    return CurveProfile("x0", n, index, nu2, nu3, cusps)


@functools.lru_cache(maxsize=256)
def cover_profile(level: int) -> CurveProfile:
    """Profile of the torsion-free cover curve at the given level.

    The group is cut out of SL2(Z) by b = 0 mod 2, c = 0 mod 2N, d = 1 mod 2N;
    conjugating by diag(2, 1) gives Gamma_H(4N) with H = {1, 2N + 1}.  Its
    image mod 2N is {(1, b; 0, 1) : b even}, N elements, none equal to -I for
    N >= 2, so the index is |PSL2(Z/2N)| / N.  The group lies in Gamma_0(4),
    which has no elliptic points, so nu2 = nu3 = 0.
    """
    return _cover_profile(level, arith._level_factors(level))


def _cover_profile(level: int, factors: dict[int, int]) -> CurveProfile:
    # cover_profile from the complete factorization of the level, taken by the caller
    # |PSL2(Z/2N)| / N = 4N**2 * prod(1 - 1/p**2) over p | 2N, twice that at
    # N = 1 where -I = I; the primes of 2N are those of N and 2
    twice_factors = {**factors, 2: factors.get(2, 0) + 1}
    index = 4 * level * level if level > 1 else 8
    for p in twice_factors:
        index = index // (p * p) * (p * p - 1)
    if level == 1:
        cusps = 3  # -I lies in the group, the three cusps of Gamma(2)
    else:
        # cusps = sum over d | 2N of phi(d) * phi(2N/d) * gcd(d, N) / d, multiplicative in 2N:
        # at p^e || 2N the divisors p^i contribute phi(p^i) * phi(p^(e - i)), in all
        # 2(p - 1)p^(e-1) + (e - 1)(p - 1)^2 p^(e-2) for odd p and, the i = e term halved,
        # (e + 2)2^(e-2) at p = 2, a half-integer at e = 1: so count twice the cusps and halve once
        twice = prod(
            (e + 2) * 2 ** (e - 1) if p == 2 else (p - 1) * p ** (e - 1) * (2 * p + (e - 1) * (p - 1)) // p
            for p, e in twice_factors.items()
        )
        cusps, odd = divmod(twice, 2)
        if odd:
            raise RuntimeError("twice the cusp count at level %d is odd" % level)
    return CurveProfile("xn", level, index, 0, 0, cusps)


def fricke_quotient_genus(p: int) -> int:
    """Genus of the quotient of X_0(p) by its Fricke involution, p prime.

    Riemann-Hurwitz with the classical fixed-point count: nu = h(-4p) for
    p = 1 mod 4 and h(-4p) + h(-p) for p = 3 mod 4, which gives genus 0 at
    p = 3; the level 2 is genus 0 outright.  A p that is no level fails the
    level rule (`arith._check_level`), and a composite level raises
    ValueError after it.
    """
    arith._check_level(p)
    if not arith.is_prime(p):
        raise ValueError("p must be prime")
    if p == 2:
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
    differentials downstairs pull back to exactly the invariant forms, so it
    is `fricke_quotient_genus(p)` with that function's checks: the level
    rule, then ValueError at a composite level, which is served by the
    newform client instead.
    """
    return fricke_quotient_genus(p)


def cover_degree_over_x0(level: int) -> int:
    """Degree of the natural projection from the cover curve to X_0(N).

    The index ratio 4N**2 * prod(1 - 1/p**2 : p | 2N) / (N * prod(1 + 1/p : p | N))
    in closed form: 6 at N = 1, 4*phi(N) for even N and 3*phi(N) for odd N > 1.
    """
    factors = arith._level_factors(level)
    if level == 1:
        return 6
    return (3 if level % 2 else 4) * arith.phi(factors)
