"""Heegner divisors on X_0(N) via binary quadratic forms, and Hurwitz class numbers.

Class representatives are positive definite integral forms [a, b, c] with
N | a and b fixed mod 2N; two such forms are identified when they differ by
an SL2(Z) change of variable with lower-left entry divisible by N.  Degrees
are weighted class counts with weight 1/2 on classes proportional to
x^2 + y^2 and 1/3 on classes proportional to x^2 + x*y + y^2.

An SL2(Z) matrix takes a reduced form [a, b, c] to one with N | a and b = r
mod 2N exactly when its first column lies in the kernel mod N of the rows
(a, (b + r)/2) and ((b - r)/2, c), whose determinant (r**2 - D)/4 is 0 mod
N.  At each prime power p^e of N that kernel is one point of P^1(Z/p^e),
read off in O(1) from a row with an entry prime to p, unless p divides all
four entries (so p | gcd(D, N)); only then are its p^e + p^(e-1) points
searched.  A unit label (1, s) is completed by ((1, 0), (s, 1)), any other
label (p, s) by t = p^-1 mod s.  Reduced forms come from one walk, as int
triples, and a `BQForm` is built only where one is returned.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, isqrt

from .arith import _check_disc, _check_level, _check_positive, _check_rational, _level_factors, _Record


class CongruenceError(ValueError):
    """Raised when (m0, r1) violates m0 = -r1**2/4N mod 1, the one way a key with m0 > 0 can fail."""


class BQForm(_Record):
    """Integral binary quadratic form a*x**2 + b*x*y + c*y**2; a, b and c are `int`s, not `bool`s."""

    _fields = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int) -> None:
        if type(a) is not int or type(b) is not int or type(c) is not int:
            raise ValueError("a, b and c must be integers")
        self._store(a, b, c)

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


def _reduced_triples(n: int) -> list[tuple[int, int, int]]:
    # (a, b, c) of every reduced form of discriminant -n, in walk order; the one walk behind
    # reduced_forms (which sorts it), both class numbers and the enumeration (which sorts its result)
    out = []
    if n % 4 in (1, 2):
        return out
    for b in range(n % 2, isqrt(n // 3) + 1, 2):
        m = (b * b + n) // 4
        for a in range(b or 1, isqrt(m) + 1):
            if not m % a:
                c = m // a
                out.append((a, b, c))
                if 0 < b < a < c:
                    out.append((a, -b, c))
    return out


def reduced_forms(n: int) -> tuple[BQForm, ...]:
    """All reduced positive definite forms of discriminant -n, sorted by (a, b, c).

    Reduced means |b| <= a <= c with b >= 0 whenever |b| = a or a = c.
    Imprimitive forms are included.  Empty unless n = 0 or 3 mod 4.
    """
    _check_positive(n)
    return tuple(BQForm._from_valid(a, b, c) for a, b, c in sorted(_reduced_triples(n)))


def _weight_sixths(a: int, b: int, c: int) -> int:
    # weights attach to the reduced shape, imprimitive multiples of the exceptional forms included
    if b == 0 and a == c:
        return 3
    if a == b == c:
        return 2
    return 6


# one shared Fraction per class weight, keyed by the weight in sixths
_WEIGHTS = {6: Fraction(1), 3: Fraction(1, 2), 2: Fraction(1, 3)}


@functools.lru_cache(maxsize=1024)
def hurwitz_class_number(n: int) -> Fraction:
    """Hurwitz class number H(n): weighted count of all form classes of discriminant -n.

    Zero when -n is not a discriminant (n = 1 or 2 mod 4).  Rejects anything
    but an `int` n >= 1 (`arith._check_positive`).
    The weights are closed-form (Hirzebruch and Zagier, Invent. Math. 36,
    1976): among the reduced forms of discriminant -n only [k, 0, k], present
    exactly when n = 4k**2, weighs 1/2, and only [k, k, k], present exactly
    when n = 3k**2, weighs 1/3.  So 6*H(n) is six times the number of
    reduced forms, less 3 when n = 4k**2 and less 4 when n = 3k**2, and no
    form is weighed one by one.
    """
    _check_positive(n)
    sixths = 6 * len(_reduced_triples(n))
    if n % 4 == 0 and isqrt(n // 4) ** 2 * 4 == n:
        sixths -= 3
    if n % 3 == 0 and isqrt(n // 3) ** 2 * 3 == n:
        sixths -= 4
    return Fraction(sixths, 6)


def class_number(n: int) -> int:
    """Class number h(-n): number of primitive reduced forms of discriminant -n."""
    _check_positive(n)
    return sum(1 for a, b, c in _reduced_triples(n) if gcd(gcd(a, b), c) == 1)


def eichler_relation_sides(n: int) -> tuple[Fraction, int]:
    """Both sides of the Hurwitz-Kronecker relation at n.

    Left: sum of H(4n - r**2) over r**2 <= 4n, with the boundary term
    H(0) = -1/12 when 4n is a square, summed in integer twelfths (12*H(m)
    is an integer).  Right: sum over d | n of max(d, n/d).  The two agree
    for every n >= 1.
    """
    _check_positive(n)
    twelfths = 0
    for r in range(isqrt(4 * n) + 1):
        m = 4 * n - r * r
        h = hurwitz_class_number(m) if m else Fraction(-1, 12)
        term = h.numerator * (12 // h.denominator)
        twelfths += term if r == 0 else 2 * term
    # d and n/d both contribute n/d when d < sqrt(n)
    rhs = sum(n // d * (1 if d * d == n else 2) for d in range(1, isqrt(n) + 1) if n % d == 0)
    return Fraction(twelfths, 12), rhs


def heegner_r_values(level: int, disc: int) -> list[int]:
    """All r in {0, ..., 2N-1} with r**2 = disc mod 4N, in increasing order; empty when none exist.

    The roots are taken on each prime power of N (on 2^(e+1) for r, checked
    mod 2^(e+2), at p = 2) and glued by CRT.  Each prime power is scanned, so
    the cost is linear in the largest prime power of N, not in N; a level
    above the factoring bound raises LevelBoundError; a disc that is no
    discriminant (`arith._check_disc`) raises ValueError.
    """
    _check_disc(disc)
    roots, modulus = [0], 1
    for p, e in {2: 0, **_level_factors(level)}.items():
        q = p**e if p > 2 else 2 ** (e + 1)
        check = q if p > 2 else 2 * q
        local = [x for x in range(q) if (x * x - disc) % check == 0]
        inv = pow(modulus, -1, q)
        roots = [r + modulus * ((x - r) * inv % q) for r in roots for x in local]
        modulus *= q
    return sorted(roots)


class HeegnerIndex(_Record):
    """Index (N, D, r) of a Heegner divisor: a level N, D < 0 a discriminant, r**2 = D mod 4N, all `int`s."""

    _fields = ("level", "disc", "r")

    def __init__(self, level: int, disc: int, r: int) -> None:
        _check_level(level)
        if type(disc) is not int or type(r) is not int:
            raise ValueError("disc and r must be integers")
        if disc >= 0:
            raise ValueError("disc must be negative")
        _check_disc(disc)
        r %= 2 * level
        if (r * r - disc) % (4 * level) != 0:
            raise ValueError("r**2 must be disc mod 4N")
        self._store(level, disc, r)

    def self_paired(self) -> bool:
        """True when r = -r mod 2N, so the paired divisor is 2x a single one."""
        return (2 * self.r) % (2 * self.level) == 0


class HeegnerDivisor(_Record):
    """Classes of a Heegner divisor with their weights, and its degree, the weights' sum.

    The index is a `HeegnerIndex`, the classes a tuple of (`BQForm`, weight)
    pairs, and each weight and the degree an `int` or a `Fraction`, else
    ValueError.  `self_paired` is the index's `self_paired()`.  The degree is
    given, not summed here: the enumeration adds the weights as integer sixths.
    """

    _fields = ("index", "classes", "degree", "self_paired")

    def __init__(self, index: HeegnerIndex, classes: tuple[tuple[BQForm, Fraction], ...], degree: Fraction) -> None:
        if type(index) is not HeegnerIndex:
            raise ValueError("index must be a HeegnerIndex")
        if type(classes) is not tuple or not all(
            type(pair) is tuple and len(pair) == 2 and type(pair[0]) is BQForm for pair in classes
        ):
            raise ValueError("classes must be a tuple of (BQForm, weight) pairs")
        for _, weight in classes:
            _check_rational(weight)
        _check_rational(degree)
        self._store(index, classes, degree, index.self_paired())


def _p1_canon(p: int, q: int, n: int) -> tuple[int, int]:
    """Canonical point of (p : q) in P^1(Z/n): the least (u*p, u*q) mod n over units u.

    With g = gcd(p, n) and m = n/g the least u*p is g (0 when g = n), reached
    exactly by the units u = u0 mod m, u0 = (p/g)^-1 mod m.  As gcd(q, g) = 1,
    the u = u0 mod m, units or not, take u*q mod n through every
    x = (u0*q mod m) + j*m, j < g, and u is a unit exactly when x is prime
    to g.  So the second coordinate is the first such x in increasing j, a
    few steps at most.
    """
    g = gcd(p, n)
    if g == n:
        # u*p = 0 for every unit u, and the orbit of q has least element gcd(q, n)
        return (0, gcd(q, n) % n)
    m = n // g
    x = pow(p // g, -1, m) * q % m
    while gcd(x, g) != 1:
        x += m
    return (g, x)


def _sl2_completion(p: int, s: int) -> tuple[int, int]:
    # (t, q) with p*t + s*q = 1 for coprime p >= 1, s >= 0, as Euclid's descent ends: t = p^-1 mod s in (-s/2, s/2]
    if not s:
        return (1, 0)
    t = pow(p, -1, s)
    if 2 * t > s:
        t -= s
    return (t, (1 - p * t) // s)


def _crt_basis(n: int) -> list[tuple[int, int, int]]:
    # (p, q, E) for each prime power q = p^e exactly dividing N, with E = 1 mod q and 0 mod N/q;
    # LevelBoundError when N is above the factoring bound and not split completely
    return [(p, p**e, n // p**e * pow(n // p**e, -1, p**e)) for p, e in _level_factors(n).items()]


# automorph groups mod +-1 on first columns, keyed by weight in sixths: trivial but for x^2 + y^2 and x^2 + xy + y^2
_AUTS = {6: ((1, 0, 0, 1),), 3: ((1, 0, 0, 1), (0, -1, 1, 0)), 2: ((1, 0, 0, 1), (0, -1, 1, 1), (-1, -1, 1, 0))}


def enumerate_heegner_divisor(idx: HeegnerIndex) -> HeegnerDivisor:
    """Enumerate the classes of forms [aN, b, c] of discriminant D with b = r mod 2N.

    Every class is a reduced form R = [a, b, c] transformed by an SL2(Z)
    matrix M = ((p, -q), (s, t)).  With u = 2ap + bs and v = bp + 2cs the
    transform is [(pu + sv)/2, tv - qu, .], so (p, s) lies in the kernel mod N
    of the rows (a, (b + r)/2) and ((b - r)/2, c).  Each kernel point gets the
    label of `_p1_canon`, inline when R has weight 1 and no prime divides the
    whole system, and the automorphs of R glue labels that give equivalent
    forms.  A unit label (1, s), s != 1, takes M = ((1, 0), (s, 1)); any other
    is completed by one modular inverse in `_sl2_completion`.  Each result is
    checked for N | a' and b' = r mod 2N, raising RuntimeError (under
    `python -O` too).  The degree is H(|D|) when gcd(D, N) = 1.
    """
    n, disc, r = idx.level, idx.disc, idx.r
    basis = _crt_basis(n)
    found = []
    for a, b, c in _reduced_triples(-disc):
        sixths = _weight_sixths(a, b, c)
        # the kernel mod N of the rows (a, h) and (k, c): one point (-h, a) or (-c, k) per prime
        # power, glued by the CRT basis, unless p divides all four entries (so p | gcd(D, N))
        h, k = (b + r) // 2, (b - r) // 2
        x = y = 0
        wide = ()
        for p, q, idem in basis:
            if a % p or h % p:
                x, y = x - h * idem, y + a * idem
            elif k % p or c % p:
                x, y = x - c * idem, y + k * idem
            else:
                # then the p^e + p^(e-1) points of P^1(Z/p^e) are searched
                line = [(1, v) for v in range(q)] + [(p * u, 1) for u in range(q // p)]
                wide += ([(u * idem, v * idem) for u, v in line if (a * u + h * v) % q == (k * u + c * v) % q == 0],)
        if sixths != 6 or wide:
            points = [(x, y)]
            for local in wide:
                points = [(x0 + u, y0 + v) for x0, y0 in points for u, v in local]
            # each orbit of the automorphs on the kernel is represented by its least label
            labels = {min(_p1_canon(g11 * p + g12 * s, g21 * p + g22 * s, n) for g11, g12, g21, g22 in _AUTS[sixths])
                      for p, s in points}
        else:
            # the label of _p1_canon inline: (1, y/x mod N) for a unit x, then M = ((1, 0), (s, 1)) unless s = 1
            g = gcd(x, n)
            m = n // g
            s = pow(x // g, -1, m) * y % m
            if g == 1 and s != 1:
                found.append((a + s * (b + c * s), b + 2 * c * s, c, 6))
                continue
            while gcd(s, g) != 1:
                s += m
            labels = ((g, s),)
        for p, s in labels:
            # M = ((p, -q), (s, t)) in SL2(Z): gcd(p, s) = 1 for a canonical label, (0, 1) lifted to (N, 1)
            p = p or n
            t, q = _sl2_completion(p, s)
            u, v = 2 * a * p + b * s, b * p + 2 * c * s
            found.append(((p * u + s * v) // 2, t * v - q * u, a * q * q - b * q * t + c * t * t, sixths))
    classes = []
    total = 0
    new_form = BQForm._from_valid
    for a, b, c, w in sorted(found):
        if a % n or (b - r) % (2 * n):
            raise RuntimeError("%r: representative [%d, %d, .] breaks N | a, b = r mod 2N" % (idx, a, b))
        classes.append((new_form(a, b, c), _WEIGHTS[w]))
        total += w
    return HeegnerDivisor._from_valid(idx, tuple(classes), Fraction(total, 6), idx.self_paired())


def special_divisor_index(level: int, m0: Fraction | int, r1: int) -> HeegnerIndex:
    """Heegner index (D, r) = (-4N*m0, r1 mod 2N) of the special divisor at (m0, r1).

    Requires a level N (see `arith._check_level`), an `int` r1, an `int` or
    `Fraction` m0 (see `arith._check_rational`), m0 > 0 and
    m0 = -r1**2/4N mod 1 (else CongruenceError), the last two checked in
    integers on m0's numerator and denominator.  Every key that passes
    indexes a Heegner divisor, built unchecked: the congruence says
    r1**2 = D mod 4N, so D = 0 or 1 mod 4, and D < 0.
    """
    _check_level(level)
    if type(r1) is not int:
        raise ValueError("r1 must be an integer")
    _check_rational(m0)
    if m0.numerator <= 0:
        raise ValueError("m0 must be positive")
    r1 = r1 % (2 * level)
    four_n, den = 4 * level, m0.denominator
    scaled = four_n // den * m0.numerator  # 4N*m0 when den | 4N
    if four_n % den or (scaled + r1 * r1) % four_n:
        raise CongruenceError(
            "m0 = %s violates m0 = -r1**2/(4N) mod 1 for r1 = %d at level %d" % (m0, r1, level)
        )
    return HeegnerIndex._from_valid(level, -scaled, r1)
