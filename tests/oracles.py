"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's own code paths: signature by exact
congruence diagonalization, determinants by cofactor expansion and
discriminant groups by Smith normal form, the discriminant form and matrix
representatives of discriminant-group elements from their residues,
modular-curve data by direct coset/orbit
enumeration, SL2(Z/m) orders by the product formula over trial division,
elliptic-point counts by polynomial root counting, primality
by trial division below 10**6 and by the Baillie-PSW test (a strong base-2
test and a strong Lucas test with Selfridge's parameters) above, and by
Miller-Rabin with all 13
fixed bases as the kernel ran it before its bases were sized to the number,
canonical points of P^1(Z/N)
by minima over units, Heegner divisors by transforming
every reduced form by all psi(N) coset representatives, the reduced-form
walk, extended gcd and per-form local-kernel labels that the Heegner
enumeration used before it moved to plain integers, the newform
witness by scanning every divisor of n, the pullback of a generator by
visiting every candidate splitting, the round-trip residual through a
validated `DivisorClass`, the Heegner r values by scanning all 2N residues,
Hurwitz class numbers by walking every reduced form below a bound, and the
Hurwitz-Kronecker relation summed in `Fraction`s.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, isqrt


def exact_signature(gram) -> tuple[int, int]:
    """Signature of a symmetric rational matrix by congruence diagonalization."""
    n = len(gram)
    m = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    pos = neg = 0
    idx = list(range(n))
    while idx:
        i0 = idx[0]
        if m[i0][i0] == 0:
            j0 = next((j for j in idx[1:] if m[i0][j] != 0), None)
            if j0 is None:
                idx.pop(0)
                continue
            for k in range(n):
                m[i0][k] += m[j0][k]
            for k in range(n):
                m[k][i0] += m[k][j0]
        p = m[i0][i0]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for j in idx[1:]:
            f = m[i0][j] / p
            if f:
                for k in range(n):
                    m[j][k] -= f * m[i0][k]
                for k in range(n):
                    m[k][j] -= f * m[k][i0]
        idx.pop(0)
    return pos, neg


def det_by_expansion(mat) -> int:
    """Determinant of a square integer matrix by cofactor expansion along the first row."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1 :] for row in mat[1:])
        term = mat[0][j] * det_by_expansion(minor)
        total += term if j % 2 == 0 else -term
    return total


def smith_normal_form(mat) -> tuple[int, ...]:
    """Diagonal of the Smith normal form of an integer matrix (nonnegative, d1 | d2 | ...)."""
    m = [list(row) for row in mat]
    n = len(m)
    out = []
    top = 0
    while top < n:
        # find a nonzero pivot of least absolute value
        pivot = None
        for i in range(top, n):
            for j in range(top, n):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            out.extend(0 for _ in range(top, n))
            break
        i, j = pivot
        m[top], m[i] = m[i], m[top]
        for row in m:
            row[top], row[j] = row[j], row[top]
        p = m[top][top]
        dirty = False
        for i in range(top + 1, n):
            q = m[i][top] // p
            if q:
                for j in range(top, n):
                    m[i][j] -= q * m[top][j]
            if m[i][top] != 0:
                dirty = True
        for j in range(top + 1, n):
            q = m[top][j] // p
            if q:
                for i in range(top, n):
                    m[i][j] -= q * m[i][top]
            if m[top][j] != 0:
                dirty = True
        if dirty:
            continue
        # pivot must divide the remaining block
        ok = True
        for i in range(top + 1, n):
            for j in range(top + 1, n):
                if m[i][j] % p != 0:
                    for k in range(top, n):
                        m[top][k] += m[i][k]
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        out.append(abs(p))
        top += 1
    return tuple(out)


def q_mod1(mu, side: str = "full") -> Fraction:
    """Quadratic form value of a discriminant-group element, reduced mod 1.

    side "trace0" gives -r1**2/4N mod 1, side "scalar" gives r2**2/4N mod 1,
    side "full" their sum mod 1.  Values lie in [0, 1).
    """
    four_n = 4 * mu.level
    if side == "trace0":
        return Fraction(-mu.r1 * mu.r1, four_n) % 1
    if side == "scalar":
        return Fraction(mu.r2 * mu.r2, four_n) % 1
    if side == "full":
        return (Fraction(mu.r2 * mu.r2 - mu.r1 * mu.r1, four_n)) % 1
    raise ValueError("side must be one of 'trace0', 'scalar', 'full'")


def matrix_rep(mu) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Diagonal matrix representative diag((r1+r2)/2N, (r2-r1)/2N) of a discriminant-group element."""
    m = 2 * mu.level
    return (
        (Fraction(mu.r1 + mu.r2, m), Fraction(0)),
        (Fraction(0), Fraction(mu.r2 - mu.r1, m)),
    )


def _pm_canon(v, m):
    return min(v, tuple((-x) % m for x in v))


def borel_image(n: int):
    """Image of the level-N lower-triangular congruence subgroup in SL2(Z/N)."""
    out = []
    for a in range(n):
        if gcd(a, n) != 1:
            continue
        d = pow(a, -1, n)
        for b in range(n):
            out.append((a, b, 0, d))
    return out


def sl2_order_by_formula(m: int) -> int:
    """|SL2(Z/m)| = m**3 * prod(1 - 1/p**2) over the primes p | m, found by trial division."""
    order = m**3
    for p in _prime_factors_by_trial(m):
        order = order // (p * p) * (p * p - 1)
    return order


def psl2_order_by_formula(m: int) -> int:
    # -I = I in SL2(Z/2), so no halving below level 3
    order = sl2_order_by_formula(m)
    return order if m <= 2 else order // 2


def x0_data_by_enumeration(n: int):
    """(index, cusps, nu2, nu3) of X_0(N) by direct counting, no closed formulas."""
    if n == 1:
        return 1, 1, 1, 1
    img = borel_image(n)
    if n <= 2:
        pm = {g for g in img}
    else:
        pm = {_pm_canon(g, n) for g in img}
    index = psl2_order_by_formula(n) // len(pm)

    pairs = sorted(
        {_pm_canon((p, q), n) for p in range(n) for q in range(n) if gcd(gcd(p, q), n) == 1}
    )
    seen = set()
    cusps = 0
    for v in pairs:
        if v in seen:
            continue
        cusps += 1
        for (a, b, c, d) in img:
            w = ((a * v[0] + b * v[1]) % n, (c * v[0] + d * v[1]) % n)
            seen.add(_pm_canon(w, n))

    nu2 = sum(1 for x in range(n) if (x * x + 1) % n == 0)
    nu3 = sum(1 for x in range(n) if (x * x + x + 1) % n == 0)
    return index, cusps, nu2, nu3


def cover_image(m: int):
    # image in SL2(Z/m) of the subgroup {b = 0 (2), c = 0 (m), d = 1 (m)};
    # c and d are pinned mod m, so enumerate the (a, b) plane and keep det = 1
    img = []
    for a in range(m):
        for b in range(0, m, 2):
            if (a * 1 - b * 0) % m == 1 % m:
                img.append((a, b % m, 0, 1 % m))
    return img


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
        candidates = cover_image(m)
    traces = set()
    for (a, b, c, d) in candidates:
        traces.add((a + d) % m)
        traces.add((-(a + d)) % m)
    nu2 = 0 if 0 not in traces else None
    nu3 = 0 if (1 not in traces and (m - 1) not in traces) else None
    if nu2 is None or nu3 is None:
        raise RuntimeError("trace scan could not certify torsion-freeness at level %d" % level)
    return nu2, nu3


@functools.lru_cache(maxsize=64)
def cover_profile_by_enumeration(level: int):
    """(index, cusps, nu2, nu3) of the cover curve by enumerating its image in SL2(Z/2N).

    The index is |PSL2(Z/2N)| over the plus-minus image size, cusps are
    orbits of the image on plus-minus primitive vector pairs, and the absence
    of elliptic elements is certified by a trace scan.
    """
    m = 2 * level
    img = cover_image(m)
    if m <= 2:
        pm_size = len({g for g in img})
    else:
        pm_size = len({_pm_canon(g, m) for g in img})
    index = psl2_order_by_formula(m) // pm_size

    pairs = sorted(
        {
            _pm_canon((p, q), m)
            for p in range(m)
            for q in range(m)
            if gcd(gcd(p, q), m) == 1
        }
    )
    seen = set()
    cusps = 0
    for v in pairs:
        if v in seen:
            continue
        cusps += 1
        for (a, b, c, d) in img:
            w = ((a * v[0] + b * v[1]) % m, (c * v[0] + d * v[1]) % m)
            seen.add(_pm_canon(w, m))

    nu2, nu3 = _cover_elliptic_counts(level)
    return index, cusps, nu2, nu3


def cover_index_by_crt(level: int) -> int:
    """SL2 index of the cover group's image at 2N as a product over prime powers."""

    def local_index(p: int, q: int) -> int:
        # image of the same congruence conditions mod p^e: c = 0, d = 1,
        # b even only at p = 2, det forces a = 1
        size = 0
        for a in range(q):
            for b in range(q):
                if p == 2 and b % 2 != 0:
                    continue
                if (a * 1 - b * 0) % q == 1 % q:
                    size += 1
        return sl2_order_by_formula(q) // size

    m = 2 * level
    total = 1
    rest = m
    p = 2
    while rest > 1:
        if rest % p == 0:
            q = 1
            while rest % p == 0:
                rest //= p
                q *= p
            total *= local_index(p, q)
        p += 1
    return total


def inverse_theta_coeffs(level: int, length: int) -> list[int]:
    """First `length` coefficients of 1/theta(q^N), theta = 1 + 2 * sum_{k>=1} q^(k^2).

    Plain power-series division of 1 by the truncated theta series.
    """
    theta = [0] * length
    for k in range(length):
        if level * k * k < length:
            theta[level * k * k] = 1 if k == 0 else 2
    inv: list[Fraction] = []
    for j in range(length):
        rhs = Fraction(1 if j == 0 else 0) - sum(theta[i] * inv[j - i] for i in range(1, j + 1))
        inv.append(rhs / theta[0])
    assert all(c.denominator == 1 for c in inv)
    return [int(c) for c in inv]


def pullback_by_splitting(level: int, four_nm: int, r1: int, r2: int) -> tuple[dict, int]:
    """Heegner part on (4N*m0, r1) keys and Omega part of the pullback of Z*(4N*m/4N, (r1, r2)).

    Every integer s with s**2 <= 4N*m is tried, and each one with
    s = r2 mod 2N is one splitting 4N*m0 = 4N*m - s**2; s = +-sqrt(4N*m)
    contributes -Omega when r1 = 0.  At m = 0 the pullback is -2*Omega at
    mu = 0 and zero otherwise.
    """
    two_n = 2 * level
    r1, r2 = r1 % two_n, r2 % two_n
    if four_nm == 0:
        return {}, (-2 if r1 == 0 and r2 == 0 else 0)
    heeg: dict[tuple[int, int], int] = {}
    omega = 0
    bound = isqrt(four_nm)
    for s in range(-bound - 1, bound + 2):
        if s * s > four_nm or (s - r2) % two_n:
            continue
        rest = four_nm - s * s
        if rest:
            heeg[(rest, r1)] = heeg.get((rest, r1), 0) + 1
        elif r1 == 0:
            omega -= 1
    return heeg, omega


def add_pullback_every_s(gen, coeff, heeg: dict) -> int:
    """The pullback summation before it visited s and -s once, kept as a reference.

    Adds into `heeg` on (4N*m0, r1) tuple keys and returns the Omega part,
    walking every s = r2 mod 2N from -isqrt(4N*m) up; its first-seen key
    order is the one the library keeps within each r1.
    """
    # verbatim from cyclecert.pullback._add_pullback, before it summed per r1
    four_nm = gen._four_nm
    if four_nm == 0:
        return -2 * coeff if gen.mu.is_zero() else 0
    r1, r2 = gen.mu.r1, gen.mu.r2
    two_n = 2 * gen.level
    smax = isqrt(four_nm)
    omega = 0
    for s in range(-smax + (r2 + smax) % two_n, smax + 1, two_n):
        rest = four_nm - s * s
        if rest:
            key = (rest, r1)
            heeg[key] = heeg.get(key, 0) + coeff
        elif r1 == 0:
            omega -= coeff
    return omega


def special_divisor_index_by_fractions(level: int, m0, r1: int):
    """`special_divisor_index` on the `Fraction` route, kept as a reference for the integer check."""
    from cyclecert.heegner import CongruenceError, HeegnerIndex

    # verbatim from cyclecert.heegner.special_divisor_index, before it checked in integers
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


def round_trip_by_divisor_class(decomp):
    """Round-trip residual of a decomposition through a validated `DivisorClass`.

    An earlier form of the library's `verify_decomposition`: the achieved
    class is built with `Fraction` keys, each validated, and the target is
    subtracted, as given, from its Heegner coefficients.  It therefore
    agrees with `verify_decomposition` only on targets already reduced
    (0 <= r1 < 2N), which is what `decompose_heegner` returns.
    """
    from cyclecert.pullback import apply_decomposition

    achieved = dict(apply_decomposition(decomp).heeg_coeffs)
    achieved[decomp.target] = achieved.get(decomp.target, Fraction(0)) - 1
    return {k: v for k, v in achieved.items() if v != 0}


@functools.lru_cache(maxsize=None)
def _is_prime_independently(p: int) -> bool:
    if p < 10**6:
        return p == 2 or (p > 2 and p % 2 == 1 and all(p % d for d in range(3, isqrt(p) + 1, 2)))
    return is_prime_bpsw(p)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI13 = 3317044064679887385961981
# the least strong pseudoprime to the first k prime bases, for k = 1, 2, 3,
# 4, 5, 6, 7 (also 8), 9 (also 10 and 11), 12 and 13, typed out here from
# the sources `arith._PSI` cites rather than read from it
LEAST_STRONG_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
    PSI13,
)


def is_prime_by_13_bases(n: int) -> bool:
    """Deterministic Miller-Rabin with the first 13 prime bases.

    Exact for n < PSI13; at or above it the bases prove nothing, so the call
    raises ValueError rather than guess.
    """
    if n >= PSI13:
        raise ValueError("primality of %d is not decidable by the 13 fixed bases" % n)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    return all(is_strong_probable_prime(n, a) for a in _MR_BASES)


def is_strong_probable_prime(n: int, a: int) -> bool:
    """True when odd n > 2 passes the strong (Miller-Rabin) test to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def is_strong_lucas_probable_prime(n: int) -> bool:
    """True when odd n > 2, not a square, passes the strong Lucas test with Selfridge's parameters.

    Method A: D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1
    and Q = (1 - D)/4.  With n + 1 = k * 2**s, k odd, n passes when
    U_k = 0 or V_(k * 2**r) = 0 mod n for some 0 <= r < s.  A D sharing a
    proper factor with n proves n composite.
    """
    disc = 5
    while (j := _jacobi(disc, n)) != -1:
        if j == 0 and disc % n:
            return False
        disc = -disc - 2 if disc > 0 else 2 - disc
    q = (1 - disc) // 4
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    half = (n + 1) // 2  # the inverse of 2 mod n
    # (U_i, V_i, Q**i) from i = 1 up the bits of k: doubling, then adding one
    u, v, qi = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qi = u * v % n, (v * v - 2 * qi) % n, qi * qi % n
        if bit == "1":
            u, v, qi = (u + v) * half % n, (disc * u + v) * half % n, qi * q % n
    if u == 0:
        return True
    for _ in range(s):
        if v == 0:
            return True
        v, qi = (v * v - 2 * qi) % n, qi * qi % n
    return False


def is_prime_bpsw(n: int) -> bool:
    """Baillie-PSW primality: the strong test to base 2 and the strong Lucas test.

    Small prime factors are divided out and squares rejected first, so that
    both halves see an odd non-square n.  No composite passes both halves
    below 2**64 (Feitsma and Galway's list of the base-2 strong
    pseudoprimes there), and none is known above (Baillie and Wagstaff,
    Math. Comp. 35 (1980); Pomerance, Selfridge and Wagstaff, ibid.).
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    r = isqrt(n)
    return r * r != n and is_strong_probable_prime(n, 2) and is_strong_lucas_probable_prime(n)


def is_factorization(n: int, factors: dict[int, int]) -> bool:
    """True when `factors` (prime -> exponent) is the prime factorization of n.

    The factors are multiplied back, and each prime is checked on its own: by
    trial division below 10**6, by `is_prime_bpsw` from there up.
    """
    product = 1
    for p, e in factors.items():
        if e < 1 or not _is_prime_independently(p):
            return False
        product *= p**e
    return product == n


def _units(n: int) -> tuple[int, ...]:
    if n == 1:
        return (1,)
    return tuple(u for u in range(1, n) if gcd(u, n) == 1)


def p1_canon_by_units(p: int, q: int, n: int) -> tuple[int, int]:
    # canonical representative of (p : q) in P^1(Z/n)
    if n == 1:
        return (0, 0)
    return min(((u * p) % n, (u * q) % n) for u in _units(n))


def p1_canon_by_unit_lifts(p: int, q: int, n: int) -> tuple[int, int]:
    """Canonical point of (p : q) in P^1(Z/n) by a minimum over the g = gcd(p, n) lifts of (p/g)^-1 mod n/g.

    The least u*p is g (0 when g = n), reached exactly by the units
    u = (p/g)^-1 mod n/g; the second coordinate is the least u*q over those
    units, O(g) steps with a gcd each.
    """
    g = gcd(p, n)
    if g == n:
        return (0, gcd(q, n) % n)
    m = n // g
    u0 = pow(p // g, -1, m)
    return (g, min(u * q % n for u in range(u0, n, m) if gcd(u, n) == 1))


def psi_by_trial_division(n: int) -> int:
    """Index of Gamma_0(n) in SL2(Z): n * prod over primes p | n of (1 + 1/p)."""
    out, rest, p = n, n, 2
    while rest > 1:
        if rest % p == 0:
            out = out // p * (p + 1)
            while rest % p == 0:
                rest //= p
        p += 1
    return out


@functools.lru_cache(maxsize=8)
def coset_reps_by_sweep(level: int):
    """(label, matrix) for the left cosets of the lower-triangular-mod-N subgroup, sorted by label.

    One pair per point of P^1(Z/N), psi(N) in all.  The label is the
    canonical point of `_p1_canon`, the matrix is in SL2(Z) with first column
    = label mod N.  Labels with first coordinate g | N, g < N, are (g, q)
    with gcd(q, g) = 1 and q least in its orbit under the units u = 1 mod
    N/g, so one sweep of q per divisor marks every orbit.
    """
    from cyclecert.arith import divisors, factor

    n = level
    if n == 1:
        return (((0, 0), ((1, 0), (0, 1))),)
    labels = [(0, 1)]
    for g in divisors(factor(n)[0])[:-1]:
        m = n // g
        stabilizer = [u for u in range(1, n, m) if gcd(u, n) == 1]
        marked = bytearray(n)
        for q in range(n):
            if marked[q] or gcd(q, g) != 1:
                continue
            labels.append((g, q))
            for u in stabilizer:
                marked[u * q % n] = 1
    reps = []
    for p, q in labels:
        pp = p or n  # gcd(p, q) = 1, and (0, 1) is lifted to (N, 1)
        _, y, x_neg = egcd_recursive(pp, q)
        assert pp * y + x_neg * q == 1
        reps.append(((p, q), ((pp, -x_neg), (q, y))))
    return tuple(reps)


def transformed(form, g):
    """The `BQForm` Q(g11*x + g12*y, g21*x + g22*y) for the form Q and the matrix g = ((g11, g12), (g21, g22))."""
    from cyclecert.heegner import BQForm

    (p, q), (s, t) = g
    a, b, c = form.a, form.b, form.c
    return BQForm(
        a * p * p + b * p * s + c * s * s,
        2 * a * p * q + b * (p * t + q * s) + 2 * c * s * t,
        a * q * q + b * q * t + c * t * t,
    )


def labels_by_coset_scan(base, level: int, r: int, reps) -> dict:
    """label -> matrix g over the coset representatives whose transform [a', b', c'] of base has N | a' and b' = r mod 2N."""
    n, two_n = level, 2 * level
    a, b, c = base.a, base.b, base.c
    # the level conditions on transformed(base, g), tested on plain ints
    selected = {}
    for label, g in reps:
        (p, q), (s, t) = g
        if (a * p * p + b * p * s + c * s * s) % n == 0 and (
            2 * a * p * q + b * (p * t + q * s) + 2 * c * s * t - r
        ) % two_n == 0:
            selected[label] = g
    return selected


def _hurwitz_weight_fraction(form) -> Fraction:
    if form.b == 0 and form.a == form.c:
        return Fraction(1, 2)
    if form.a == form.b == form.c:
        return Fraction(1, 3)
    return Fraction(1)


# automorphs of x^2 + y^2 and x^2 + xy + y^2, acting on first columns
_AUT_FOUR = ((0, -1), (1, 0))
_AUT_SIX = ((0, -1), (1, 1))


def heegner_divisor_by_coset_scan(idx):
    """Heegner divisor at `idx` by transforming every reduced form by all psi(N) coset representatives.

    The automorph group of a reduced form glues cosets that give equivalent
    forms; each class is represented by the form from its least label.
    """
    from cyclecert.heegner import HeegnerDivisor, _p1_canon

    n, disc, r = idx.level, idx.disc, idx.r
    reps = coset_reps_by_sweep(n)
    classes = []
    for base in reduced_forms_by_walk(-disc):
        a, b, c = base.a, base.b, base.c
        if b == 0 and a == c:
            aut = _AUT_FOUR
        elif a == b == c:
            aut = _AUT_SIX
        else:
            aut = None
        selected = labels_by_coset_scan(base, n, r, reps)
        weight = _hurwitz_weight_fraction(base)
        seen = set()
        for label, g in selected.items():
            if label in seen:
                continue
            orbit = {label}
            if aut is not None:
                (x, y), (z, w) = aut
                p, s = g[0][0], g[1][0]
                for _ in range(6):
                    p, s = x * p + y * s, z * p + w * s
                    other = _p1_canon(p, s, n)
                    if other in selected:
                        orbit.add(other)
            seen |= orbit
            classes.append((transformed(base, selected[min(orbit)]), weight))
    classes.sort(key=lambda cw: (cw[0].a, cw[0].b, cw[0].c))
    degree = sum((w for (_, w) in classes), Fraction(0))
    return HeegnerDivisor(index=idx, classes=tuple(classes), degree=degree)


def reduced_forms_by_walk(n: int):
    """All reduced positive definite forms of discriminant -n, one `while` step per candidate a.

    Reduced means |b| <= a <= c with b >= 0 whenever |b| = a or a = c.
    Imprimitive forms are included.  Empty unless n = 0 or 3 mod 4.
    """
    from cyclecert.heegner import BQForm

    if n <= 0:
        raise ValueError("n must be positive")
    out = []
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


def egcd_recursive(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (a, 1, 0)
    g, x, y = egcd_recursive(b, a % b)
    return (g, y, x - (a // b) * y)


def _local_kernel(rows, p: int, q: int):
    # points of P^1(Z/q), q = p^e, on which both rows vanish, given a determinant of 0 mod q
    for alpha, beta in rows:
        if alpha % p or beta % p:
            return [(-beta, alpha)]
    points = [(1, y) for y in range(q)] + [(p * x, 1) for x in range(q // p)]
    return [(x, y) for x, y in points if all((al * x + be * y) % q == 0 for al, be in rows)]


def admissible_labels_by_local_kernels(form, n: int, r: int, basis) -> set:
    """Canonical labels of the kernel mod N, the per-prime kernels glued by the CRT basis of N."""
    from cyclecert.heegner import _p1_canon

    a, b, c = form.a, form.b, form.c
    rows = ((a, (b + r) // 2), ((b - r) // 2, c))
    points = [(0, 0)]
    for p, q, idem in basis:
        points = [(x0 + x * idem, y0 + y * idem) for x0, y0 in points for x, y in _local_kernel(rows, p, q)]
    return {_p1_canon(x, y, n) for x, y in points}


def _weight_sixths_of_form(form) -> int:
    if form.b == 0 and form.a == form.c:
        return 3
    if form.a == form.b == form.c:
        return 2
    return 6


def heegner_divisor_by_local_kernels(idx):
    """Heegner divisor at `idx` through BQForm objects: the walk, per-form label sets and `transformed`.

    Each reduced form's labels are closed under its automorphs, and each
    orbit is represented by its least label, lifted to an SL2(Z) matrix by
    the recursive extended gcd.
    """
    from cyclecert.heegner import HeegnerDivisor, _crt_basis, _p1_canon

    n, disc, r = idx.level, idx.disc, idx.r
    basis = _crt_basis(n)
    classes = []
    total_sixths = 0
    for base in reduced_forms_by_walk(-disc):
        sixths = _weight_sixths_of_form(base)
        labels = admissible_labels_by_local_kernels(base, n, r, basis)
        if sixths in _AUTS_BY_SIXTHS:
            (x, y), (z, w) = _AUTS_BY_SIXTHS[sixths]
            least = set()
            for p, s in labels:
                orbit = set()
                for _ in range(6):
                    p, s = x * p + y * s, z * p + w * s
                    orbit.add(_p1_canon(p, s, n))
                least.add(min(orbit))
            labels = least
        for p, s in labels:
            _, t, q_neg = egcd_recursive(p or n, s)
            form = transformed(base, ((p or n, -q_neg), (s, t)))
            assert form.a % n == 0 and (form.b - r) % (2 * n) == 0
            classes.append((form, _WEIGHT_OF_SIXTHS[sixths]))
            total_sixths += sixths
    classes.sort(key=lambda cw: (cw[0].a, cw[0].b, cw[0].c))
    return HeegnerDivisor(index=idx, classes=tuple(classes), degree=Fraction(total_sixths, 6))


_AUTS_BY_SIXTHS = {3: _AUT_FOUR, 2: _AUT_SIX}
_WEIGHT_OF_SIXTHS = {6: Fraction(1), 3: Fraction(1, 2), 2: Fraction(1, 3)}


def witness_by_divisor_scan(n: int, mode: str = "offline", client=None, divisors=None):
    """First divisor level of n with an odd-sign rank-1 record, by listing every divisor of n.

    Divisors are scanned in increasing order; a hit at level M certifies every
    multiple of M.  Rank exactly 1 is required: odd-sign forms of rank 3 or
    higher have vanishing central derivative and are not witnesses.  In
    offline mode levels with no local data are skipped (they answer "no
    records").  Fetch failures raise WitnessIndeterminate, which is distinct
    from a definite None.
    """
    from cyclecert import arith
    from cyclecert.newforms import NewformClient, TransientFetchError, WitnessIndeterminate

    if n < 1:
        raise ValueError("n must be a positive integer")
    client = client or NewformClient()
    if divisors is None:
        factors, cofactor = arith.factor(n)
        if cofactor > 1:
            raise WitnessIndeterminate("cannot enumerate divisors of %d" % n)
        divisors = arith.divisors(factors)
    scan = sorted(divisors)
    if mode == "offline":
        available = client.available_offline_levels()
        scan = [m for m in scan if m in available]
    for m in scan:
        try:
            records = client.fetch_newforms(m, mode=mode)
        except TransientFetchError as exc:
            raise WitnessIndeterminate("fetch failed at level %d: %s" % (m, exc)) from exc
        hits = [r for r in records if r.fricke_sign == -1 and r.analytic_rank == 1]
        if hits:
            return m, min(hits, key=lambda r: r.label)
    return None


def _prime_factors_by_trial(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def _kronecker_minus(k: int, p: int) -> int:
    """(-k/p) for k in (3, 4) and a prime p; Euler's criterion where p is odd and prime to k."""
    if p == 2:
        return 0 if k == 4 else -1
    if p == 3 and k == 3:
        return 0
    return 1 if pow(-k % p, (p - 1) // 2, p) == 1 else -1


def x0_genus_by_formula(n: int) -> int:
    """Genus of X_0(N) from the classical index, elliptic-point and cusp counts."""
    primes = _prime_factors_by_trial(n)
    index = n
    for p in primes:
        index = index // p * (p + 1)
    nu2 = 0 if n % 4 == 0 else functools.reduce(lambda acc, p: acc * (1 + _kronecker_minus(4, p)), primes, 1)
    nu3 = 0 if n % 9 == 0 else functools.reduce(lambda acc, p: acc * (1 + _kronecker_minus(3, p)), primes, 1)
    cusps = sum(_phi_by_trial(gcd(d, n // d)) for d in range(1, n + 1) if n % d == 0)
    twelve_g = 12 + index - 3 * nu2 - 4 * nu3 - 6 * cusps
    assert twelve_g % 12 == 0
    return twelve_g // 12


def _phi_by_trial(n: int) -> int:
    out = n
    for p in _prime_factors_by_trial(n):
        out = out // p * (p - 1)
    return out


def primitive_class_number_by_walk(n: int) -> int:
    """h(-n): primitive reduced forms [a, b, c] of discriminant -n, counted one a at a time."""
    count = 0
    for b in range(n % 2, isqrt(n // 3) + 1, 2):
        m = (b * b + n) // 4
        for a in range(max(b, 1), isqrt(m) + 1):
            if m % a == 0 and gcd(gcd(a, b), m // a) == 1:
                count += 2 if 0 < b < a < m // a else 1
    return count


def fricke_quotient_genus_by_fixed_points(n: int) -> int:
    """Genus of X_0(N)/w_N for N >= 5 by Ogg's count of the Fricke involution's fixed points.

    The fixed points number nu = h(-4N) + h(-N) when N = 3 mod 4 and h(-4N)
    otherwise, h counting primitive forms; Riemann-Hurwitz then gives
    g(X_0(N)/w_N) = (2*g0 + 2 - nu)/4.  Ogg, "Hyperelliptic modular curves",
    Bull. SMF 102 (1974).
    """
    if n < 5:
        raise ValueError("Ogg's count needs N >= 5")
    nu = primitive_class_number_by_walk(4 * n)
    if n % 4 == 3:
        nu += primitive_class_number_by_walk(n)
    numerator = 2 * x0_genus_by_formula(n) + 2 - nu
    assert numerator % 4 == 0 and numerator >= 0, n
    return numerator // 4


def fricke_prime_square_genus(p: int) -> int:
    """Genus of X_0(p**2)/w for an odd prime p, in closed form.

    Ogg's count at N = p**2 = 1 mod 4 is nu = h(-4p**2), and the class number
    formula for orders (Cox, Primes of the Form x**2 + ny**2, section 7) gives
    h(-4p**2) = (p - (-4/p))/2.  X_0(p**2) has index p(p + 1), p + 1 cusps,
    1 + (-4/p) elliptic points of order 2, and 1 + (-3/p) of order 3 (none
    at p = 3, where 9 divides the level).
    """
    chi4 = _kronecker_minus(4, p)
    nu3 = 0 if p == 3 else 1 + _kronecker_minus(3, p)
    twelve_g0 = 12 + p * (p + 1) - 3 * (1 + chi4) - 4 * nu3 - 6 * (p + 1)
    assert twelve_g0 % 12 == 0
    numerator = 2 * (twelve_g0 // 12) + 2 - (p - chi4) // 2
    assert numerator % 4 == 0 and numerator >= 0, p
    return numerator // 4


def heegner_r_values_by_scan(level: int, disc: int) -> list[int]:
    """All r in {0, ..., 2N-1} with r**2 = disc mod 4N, by scanning every residue.

    The library ran this scan before it solved the congruence per prime power.
    """
    if level < 1:
        raise ValueError("level must be a positive integer")
    if disc % 4 in (2, 3):
        raise ValueError("disc must be 0 or 1 mod 4")
    return [r for r in range(2 * level) if (r * r - disc) % (4 * level) == 0]


def heegner_r_table_by_scan(level: int) -> dict[int, list[int]]:
    """The same scan once for every disc: residue of r**2 mod 4N -> increasing r in {0, ..., 2N-1}."""
    table: dict[int, list[int]] = {}
    for r in range(2 * level):
        table.setdefault(r * r % (4 * level), []).append(r)
    return table


def hurwitz_table_by_forms(limit: int) -> list[Fraction]:
    """H(m) for 0 <= m <= limit (H(0) left at 0), by walking every reduced form [a, b, c] with 4ac - b**2 <= limit.

    Reduced means |b| <= a <= c with b >= 0 when a = c (b = -a is never
    walked); classes of k(x**2 + y**2) and k(x**2 + xy + y**2) weigh 1/2 and
    1/3, every other class 1, imprimitive ones included.
    """
    sixths = [0] * (limit + 1)
    a = 1
    while 3 * a * a <= limit:
        for b in range(-a + 1, a + 1):
            c = a
            while 4 * a * c - b * b <= limit:
                if c > a or b >= 0:
                    m = 4 * a * c - b * b
                    if b == 0 and a == c:
                        sixths[m] += 3
                    elif a == b == c:
                        sixths[m] += 2
                    else:
                        sixths[m] += 6
                c += 1
        a += 1
    return [Fraction(s, 6) for s in sixths]


def eichler_relation_sides_by_fractions(n: int, hurwitz) -> tuple[Fraction, int]:
    """Both sides of the Hurwitz-Kronecker relation at n as the library summed them, in Fractions.

    `hurwitz(m)` gives H(m) for m > 0; the boundary term is H(0) = -1/12, and
    the right side is summed over every d in 1..n.
    """
    lhs = Fraction(0)
    for r in range(isqrt(4 * n) + 1):
        m = 4 * n - r * r
        term = Fraction(-1, 12) if m == 0 else hurwitz(m)
        lhs += term if r == 0 else 2 * term
    rhs = sum(max(d, n // d) for d in range(1, n + 1) if n % d == 0)
    return lhs, rhs
