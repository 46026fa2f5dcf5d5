"""Heegner divisors on X_0(N) via binary quadratic forms, and Hurwitz class numbers.

Class representatives are positive definite integral forms [a, b, c] with
N | a and b fixed mod 2N; two such forms are identified when they differ by
an SL2(Z) change of variable with lower-left entry divisible by N.  Degrees
are weighted class counts with weight 1/2 on classes proportional to
x^2 + y^2 and 1/3 on classes proportional to x^2 + x*y + y^2.

An SL2(Z) matrix takes a reduced form [a, b, c] to one with N | a and
b = r mod 2N exactly when its first column lies in the kernel mod N of the
rows (a, (b + r)/2) and ((b - r)/2, c), whose determinant (r**2 - D)/4 is
0 mod N.  At each prime power p^e of N that kernel is one point of
P^1(Z/p^e), read off in O(1) from a row with an entry prime to p, unless p
divides all four entries (so p | gcd(D, N)); only then are its
p^e + p^(e-1) points searched.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, isqrt

from .arith import _Record, factor


class CongruenceError(ValueError):
    """Raised when (m0, r1) violates m0 = -r1**2/4N mod 1, the one way a key with m0 > 0 can fail."""


class BQForm(_Record):
    """Integral binary quadratic form a*x**2 + b*x*y + c*y**2."""

    _fields = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int) -> None:
        self.__dict__.update(a=a, b=b, c=c)

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def content(self) -> int:
        return gcd(gcd(self.a, abs(self.b)), self.c)

    def transformed(self, g: tuple[tuple[int, int], tuple[int, int]]) -> "BQForm":
        """Form Q(g11*x + g12*y, g21*x + g22*y)."""
        (p, q), (s, t) = g
        a, b, c = self.a, self.b, self.c
        return BQForm(
            a * p * p + b * p * s + c * s * s,
            2 * a * p * q + b * (p * t + q * s) + 2 * c * s * t,
            a * q * q + b * q * t + c * t * t,
        )


def reduced_forms(n: int) -> tuple[BQForm, ...]:
    """All reduced positive definite forms of discriminant -n.

    Reduced means |b| <= a <= c with b >= 0 whenever |b| = a or a = c.
    Imprimitive forms are included.  Empty unless n = 0 or 3 mod 4.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    out: list[BQForm] = []
    if n % 4 in (1, 2):
        return ()
    for b in range(n % 2, isqrt(n // 3) + 1, 2):
        m = (b * b + n) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                out.append(BQForm(a, b, c))
                if 0 < b < a < c:
                    out.append(BQForm(a, -b, c))
            a += 1
    return tuple(sorted(out, key=lambda f: (f.a, f.b, f.c)))


def _weight_sixths(form: BQForm) -> int:
    # weights attach to the reduced shape, so imprimitive multiples of the
    # two exceptional forms are also weighted
    if form.b == 0 and form.a == form.c:
        return 3
    if form.a == form.b == form.c:
        return 2
    return 6


# one shared Fraction per class weight, keyed by the weight in sixths
_WEIGHTS = {6: Fraction(1), 3: Fraction(1, 2), 2: Fraction(1, 3)}


@functools.lru_cache(maxsize=1024)
def hurwitz_class_number(n: int) -> Fraction:
    """Hurwitz class number H(n): weighted count of all form classes of discriminant -n.

    Zero when -n is not a discriminant (n = 1 or 2 mod 4).  Rejects n <= 0.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    return Fraction(sum(_weight_sixths(f) for f in reduced_forms(n)), 6)


def class_number(n: int) -> int:
    """Class number h(-n): number of primitive reduced forms of discriminant -n."""
    if n <= 0:
        raise ValueError("n must be positive")
    return sum(1 for f in reduced_forms(n) if f.content() == 1)


def eichler_relation_sides(n: int) -> tuple[Fraction, int]:
    """Both sides of the Hurwitz-Kronecker relation at n.

    Left: sum of H(4n - r**2) over r**2 <= 4n, with the boundary term
    H(0) = -1/12 when 4n is a square.  Right: sum over d | n of max(d, n/d).
    The two agree for every n >= 1.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    lhs = Fraction(0)
    r = 0
    while r * r <= 4 * n:
        m = 4 * n - r * r
        term = Fraction(-1, 12) if m == 0 else hurwitz_class_number(m)
        lhs += term if r == 0 else 2 * term
        r += 1
    rhs = sum(max(d, n // d) for d in range(1, n + 1) if n % d == 0)
    return lhs, rhs


def heegner_r_values(level: int, disc: int) -> list[int]:
    """All r in {0, ..., 2N-1} with r**2 = disc mod 4N; empty when none exist."""
    if level < 1:
        raise ValueError("level must be a positive integer")
    if disc % 4 in (2, 3):
        raise ValueError("disc must be 0 or 1 mod 4")
    return [r for r in range(2 * level) if (r * r - disc) % (4 * level) == 0]


class HeegnerIndex(_Record):
    """Index (N, D, r) of a Heegner divisor: D < 0 a discriminant, r**2 = D mod 4N."""

    _fields = ("level", "disc", "r")

    def __init__(self, level: int, disc: int, r: int) -> None:
        if level < 1:
            raise ValueError("level must be a positive integer")
        if disc >= 0:
            raise ValueError("disc must be negative")
        if disc % 4 in (2, 3):
            raise ValueError("disc must be 0 or 1 mod 4")
        r %= 2 * level
        if (r * r - disc) % (4 * level) != 0:
            raise ValueError("r**2 must be disc mod 4N")
        self.__dict__.update(level=level, disc=disc, r=r)

    def self_paired(self) -> bool:
        """True when r = -r mod 2N, so the paired divisor is 2x a single one."""
        return (2 * self.r) % (2 * self.level) == 0


class HeegnerDivisor(_Record):
    _fields = ("index", "classes", "degree", "self_paired")

    def __init__(
        self,
        index: HeegnerIndex,
        classes: tuple[tuple[BQForm, Fraction], ...],
        degree: Fraction,
        self_paired: bool,
    ) -> None:
        self.__dict__.update(index=index, classes=classes, degree=degree, self_paired=self_paired)


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


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (a, 1, 0)
    g, x, y = _egcd(b, a % b)
    return (g, y, x - (a // b) * y)


def _local_kernel(rows: tuple[tuple[int, int], ...], p: int, q: int) -> list[tuple[int, int]]:
    # points of P^1(Z/q), q = p^e, on which both rows vanish, given a determinant of 0 mod q
    for alpha, beta in rows:
        if alpha % p or beta % p:
            return [(-beta, alpha)]
    points = [(1, y) for y in range(q)] + [(p * x, 1) for x in range(q // p)]
    return [(x, y) for x, y in points if all((al * x + be * y) % q == 0 for al, be in rows)]


def _crt_basis(n: int) -> list[tuple[int, int, int]]:
    # (p, q, E) for each prime power q = p^e exactly dividing N, with E = 1 mod q and 0 mod N/q
    return [(p, p**e, n // p**e * pow(n // p**e, -1, p**e)) for p, e in factor(n)[0].items()]


def _admissible_labels(form: BQForm, n: int, r: int, basis: list[tuple[int, int, int]]) -> set[tuple[int, int]]:
    # canonical labels of the kernel mod N, the local kernels glued by the CRT basis of N
    a, b, c = form.a, form.b, form.c
    rows = ((a, (b + r) // 2), ((b - r) // 2, c))
    points = [(0, 0)]
    for p, q, idem in basis:
        points = [(x0 + x * idem, y0 + y * idem) for x0, y0 in points for x, y in _local_kernel(rows, p, q)]
    return {_p1_canon(x, y, n) for x, y in points}


# automorphs of x^2 + y^2 and x^2 + xy + y^2, acting on first columns, keyed by weight in sixths
_AUTS = {3: ((0, -1), (1, 0)), 2: ((0, -1), (1, 1))}


def enumerate_heegner_divisor(idx: HeegnerIndex) -> HeegnerDivisor:
    """Enumerate the classes of forms [aN, b, c] of discriminant D with b = r mod 2N.

    Every class is a reduced form R = [a, b, c] transformed by an SL2(Z)
    matrix M with first column (p, s).  With u = 2ap + bs and v = bp + 2cs
    the transform has (2a', b') = M^T (u, v), so N | a' and b' = r mod 2N
    say exactly that (p, s) is in the kernel mod N of the rows
    (a, (b + r)/2) and ((b - r)/2, c).  M is built from the canonical label
    of each kernel point, and the automorphs of R (order 2 or 3 mod +-1 in
    the two exceptional shapes) glue labels that give equivalent forms.  A
    reduced form costs one local solve per prime of N and a label in a few
    steps, plus a search of P^1(Z/l^e) at a prime l | gcd(D, N) dividing the
    whole system.  The weighted degree is H(|D|) whenever gcd(D, N) = 1.
    """
    n, disc, r = idx.level, idx.disc, idx.r
    basis = _crt_basis(n)
    classes: list[tuple[BQForm, Fraction]] = []
    total_sixths = 0
    for base in reduced_forms(-disc):
        sixths = _weight_sixths(base)
        labels = _admissible_labels(base, n, r, basis)
        if sixths in _AUTS:
            # the labels are closed under the automorphs; each orbit is represented by its least label
            (x, y), (z, w) = _AUTS[sixths]
            least = set()
            for p, s in labels:
                orbit = set()
                for _ in range(6):
                    p, s = x * p + y * s, z * p + w * s
                    orbit.add(_p1_canon(p, s, n))
                least.add(min(orbit))
            labels = least
        for p, s in labels:
            # gcd(p, s) = 1 for a canonical label, and (0, 1) is lifted to (N, 1)
            _, t, q_neg = _egcd(p or n, s)
            form = base.transformed(((p or n, -q_neg), (s, t)))
            assert form.a % n == 0 and (form.b - r) % (2 * n) == 0
            classes.append((form, _WEIGHTS[sixths]))
            total_sixths += sixths
    classes.sort(key=lambda cw: (cw[0].a, cw[0].b, cw[0].c))
    return HeegnerDivisor(
        index=idx, classes=tuple(classes), degree=Fraction(total_sixths, 6), self_paired=idx.self_paired()
    )


def special_divisor_index(level: int, m0: Fraction | int, r1: int) -> HeegnerIndex:
    """Heegner index (D, r) = (-4N*m0, r1 mod 2N) of the special divisor at (m0, r1).

    Requires m0 > 0 and the congruence m0 = -r1**2/4N mod 1, violated input
    raising CongruenceError.  Every key that passes indexes a Heegner divisor:
    the congruence says r1**2 = D mod 4N, so D = 0 or 1 mod 4, and D < 0.
    """
    if level < 1:
        raise ValueError("level must be a positive integer")
    m0 = Fraction(m0)
    if m0 <= 0:
        raise ValueError("m0 must be positive")
    r1 = r1 % (2 * level)
    scaled = m0 * 4 * level
    if scaled.denominator != 1 or (scaled.numerator + r1 * r1) % (4 * level) != 0:
        raise CongruenceError(
            "m0 = %s violates m0 = -r1**2/(4N) mod 1 for r1 = %d at level %d" % (m0, r1, level)
        )
    return HeegnerIndex(level=level, disc=-scaled.numerator, r=r1)
