"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's own code paths: signature by exact
congruence diagonalization, determinants by cofactor expansion and
discriminant groups by Smith normal form, the discriminant form and matrix
representatives of discriminant-group elements from their residues,
modular-curve data by direct coset/orbit
enumeration, elliptic-point counts by polynomial root counting, primality
by trial division (or sympy above 10**12), canonical points of P^1(Z/N)
by minima over units, Heegner divisors by transforming
every reduced form by all psi(N) coset representatives, the newform
witness by scanning every divisor of n, the pullback of a generator by
visiting every candidate splitting, and the round-trip residual through a
validated `DivisorClass`.
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


def x0_data_by_enumeration(n: int):
    """(index, cusps, nu2, nu3) of X_0(N) by direct counting, no closed formulas."""
    if n == 1:
        return 1, 1, 1, 1
    from cyclecert.modcurves import psl2_order

    img = borel_image(n)
    if n <= 2:
        pm = {g for g in img}
    else:
        pm = {_pm_canon(g, n) for g in img}
    index = psl2_order(n) // len(pm)

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


def cover_profile_by_enumeration(level: int):
    """(index, cusps, nu2, nu3) of the cover curve by enumerating its image in SL2(Z/2N).

    The index is |PSL2(Z/2N)| over the plus-minus image size, cusps are
    orbits of the image on plus-minus primitive vector pairs, and the absence
    of elliptic elements is certified by a trace scan.
    """
    from cyclecert.modcurves import psl2_order

    m = 2 * level
    img = cover_image(m)
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
    from cyclecert.modcurves import sl2_order

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
        return sl2_order(q) // size

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
    if p <= 10**12:
        return p == 2 or (p > 2 and p % 2 == 1 and all(p % d for d in range(3, isqrt(p) + 1, 2)))
    import pytest

    return pytest.importorskip("sympy").isprime(p)


def is_factorization(n: int, factors: dict[int, int]) -> bool:
    """True when `factors` (prime -> exponent) is the prime factorization of n.

    The factors are multiplied back, and each prime is checked on its own: by
    trial division up to 10**12, by sympy.isprime above that (the calling test
    is skipped when sympy is missing).
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
    from cyclecert.heegner import _egcd

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
        _, y, x_neg = _egcd(pp, q)
        assert pp * y + x_neg * q == 1
        reps.append(((p, q), ((pp, -x_neg), (q, y))))
    return tuple(reps)


def labels_by_coset_scan(base, level: int, r: int, reps) -> dict:
    """label -> matrix g over the coset representatives whose transform [a', b', c'] of base has N | a' and b' = r mod 2N."""
    n, two_n = level, 2 * level
    a, b, c = base.a, base.b, base.c
    # the level conditions on base.transformed(g), tested on plain ints
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
    from cyclecert.heegner import HeegnerDivisor, _p1_canon, reduced_forms

    n, disc, r = idx.level, idx.disc, idx.r
    reps = coset_reps_by_sweep(n)
    classes = []
    for base in reduced_forms(-disc):
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
            classes.append((base.transformed(selected[min(orbit)]), weight))
    classes.sort(key=lambda cw: (cw[0].a, cw[0].b, cw[0].c))
    degree = sum((w for (_, w) in classes), Fraction(0))
    return HeegnerDivisor(index=idx, classes=tuple(classes), degree=degree, self_paired=idx.self_paired())


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
