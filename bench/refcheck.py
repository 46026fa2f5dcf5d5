"""Reference checks for the benchmark, independent of the library's code paths.

Every check here recomputes the expected answer from first principles
(trial division, brute-force reduced-form counts, a power-series inversion,
classical genus formulas, an orbit count on the conjugate group Gamma_H(4N))
or from the fixture files read as plain JSON.  Nothing here imports
cyclecert, and nothing here runs inside a timed region.
"""

from __future__ import annotations

import functools
import json
import os
from fractions import Fraction
from math import gcd

LISTED_PRIMES = (37, 43, 53, 61, 67)
LARGE_PRIME_FLOOR = 71
# the guard that keeps the cover profile out of certificates above this level
PROFILE_GUARD_LEVEL = 60


# -- elementary arithmetic ---------------------------------------------------

def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the first 13 prime bases (exact below 3.3e24)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def trial_factor(n: int) -> dict[int, int]:
    """Prime factorization by trial division; meant for n up to about 10**14."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def product(factors: dict[int, int]) -> int:
    n = 1
    for p, e in factors.items():
        n *= p**e
    return n


def divisors(factors: dict[int, int]) -> list[int]:
    out = [1]
    for p, e in factors.items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def phi(factors: dict[int, int]) -> int:
    r = 1
    for p, e in factors.items():
        r *= (p - 1) * p ** (e - 1)
    return r


def psi(factors: dict[int, int]) -> int:
    """Index of Gamma_0(N) in PSL2(Z): N * prod(1 + 1/p)."""
    r = 1
    for p, e in factors.items():
        r *= (p + 1) * p ** (e - 1)
    return r


@functools.lru_cache(maxsize=1)
def large_level_bound() -> int:
    bound = 2**6 * 3**4 * 5**2 * 7**2
    for p in range(11, LARGE_PRIME_FLOOR + 1):
        if is_prime(p) and p not in LISTED_PRIMES:
            bound *= p
    return bound


# -- class numbers -----------------------------------------------------------

def reduced_form_weights(n: int):
    """Yield (a, b, c, weight) over reduced forms of discriminant -n, n > 0.

    Reduced: |b| <= a <= c, and b >= 0 when |b| == a or a == c.  Weight 1/2
    on multiples of x^2 + y^2, 1/3 on multiples of x^2 + xy + y^2.
    """
    if n % 4 in (1, 2):
        return
    a = 1
    while 3 * a * a <= n:
        for b in range(-a + 1, a + 1):
            num = b * b + n
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if b == 0 and a == c:
                w = Fraction(1, 2)
            elif b == a == c:
                w = Fraction(1, 3)
            else:
                w = Fraction(1)
            yield a, b, c, w
        a += 1


def form_counts(limit: int) -> list[int]:
    """counts[n] = number of reduced forms of discriminant -n, for 0 <= n <= limit."""
    counts = [0] * (limit + 1)
    a = 1
    while 3 * a * a <= limit:
        for b in range(-a + 1, a + 1):
            c = a
            while 4 * a * c - b * b <= limit:
                if c > a or b >= 0:
                    counts[4 * a * c - b * b] += 1
                c += 1
        a += 1
    return counts


@functools.lru_cache(maxsize=4096)
def hurwitz(n: int) -> Fraction:
    return sum((w for (_, _, _, w) in reduced_form_weights(n)), Fraction(0))


def class_number(n: int) -> int:
    """h(-n): primitive reduced forms of discriminant -n."""
    return sum(1 for (a, b, c, _) in reduced_form_weights(n) if gcd(gcd(a, abs(b)), c) == 1)


# -- modular curves ----------------------------------------------------------

def x0_profile(n: int) -> dict:
    """Classical data of X_0(N) as the CLI renders it (without the 'kind' key)."""
    f = trial_factor(n)
    index = psi(f)
    if n % 4 == 0:
        nu2 = 0
    else:
        nu2 = 1
        for p in f:
            nu2 *= 1 if p == 2 else (2 if p % 4 == 1 else 0)
    if n % 9 == 0:
        nu3 = 0
    else:
        nu3 = 1
        for p in f:
            nu3 *= 1 if p == 3 else (2 if p % 3 == 1 else 0)
    cusps = sum(phi(trial_factor(gcd(d, n // d))) for d in divisors(f))
    genus = Fraction(1) + Fraction(index, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(cusps, 2)
    return {"label": "x0", "level": n, "index": index, "nu2": nu2, "nu3": nu3,
            "cusps": cusps, "genus": int(genus)}


def fricke_genus(p: int) -> int:
    """Genus of X_0(p)/w_p by Riemann-Hurwitz with nu = h(-4p) (+ h(-p) when p = 3 mod 4)."""
    if p in (2, 3):
        return 0
    nu = class_number(4 * p) + (class_number(p) if p % 4 == 3 else 0)
    return (2 * x0_profile(p)["genus"] + 2 - nu) // 4


@functools.lru_cache(maxsize=None)
def cover_profile(n: int) -> dict:
    """Data of the cover curve via its conjugate Gamma_H(4N), H = {1, 2N+1}.

    Conjugating {b = 0 (2), c = 0 (2N), d = 1 (2N)} by diag(2, 1) gives
    Gamma_H(4N).  Index is psi(M) * phi(M) / |+-H|; cusps are orbits of the
    maps (x, y) -> +-(h^-1 x + b y, h y) on primitive vectors mod M; the group
    lies in Gamma_0(4), so there are no elliptic points.
    """
    m = 4 * n
    fm = trial_factor(m)
    pm_h = {1, m - 1, (2 * n + 1) % m, (-(2 * n + 1)) % m}
    index = psi(fm) * phi(fm) // len(pm_h)
    inverses = {h: pow(h, -1, m) for h in pm_h}
    labels = set()
    for y in range(m):
        # the label depends on x mod g only, and (x, y) is primitive iff gcd(x, g) = 1
        g = gcd(y, m)
        for x in range(g):
            if gcd(x, g) == 1:
                labels.add(min(((x * inverses[h]) % g, (h * y) % m) for h in pm_h))
    cusps = len(labels)
    genus = Fraction(1) + Fraction(index, 12) - Fraction(cusps, 2)
    return {"label": "xn", "level": n, "index": index, "nu2": 0, "nu3": 0,
            "cusps": cusps, "genus": int(genus)}


def cover_degree(n: int) -> int:
    return cover_profile(n)["index"] // psi(trial_factor(n))


# -- pullback ladder ---------------------------------------------------------

def inverse_theta(level: int, count: int) -> list[int]:
    """First `count` coefficients of 1/theta(q^N), theta = 1 + 2 * sum_{k>=1} q^(k^2)."""
    theta = [0] * count
    if count:
        theta[0] = 1
    k = 1
    while level * k * k < count:
        theta[level * k * k] = 2
        k += 1
    inv = [0] * count
    for j in range(count):
        acc = 1 if j == 0 else 0
        acc -= sum(theta[i] * inv[j - i] for i in range(1, j + 1) if theta[i])
        inv[j] = acc
    return inv


def expected_ladder(level: int, m0: Fraction, r1: int) -> list[tuple[str, int, int, str]]:
    """Terms (m, r1, r2, coeff) of the decomposition of Heeg(m0, r1), all as strings/ints.

    Z*(m0 - j, (r1, 0)) carries the j-th coefficient of 1/theta(q^N).  When
    r1 = 0 the Z*(0, 0) coefficient cancels the Omega parts, which gives
    minus the sum of the ladder coefficients at m0 - j = N * t^2.
    """
    r1 %= 2 * level
    depth = -(-m0.numerator // m0.denominator)  # ceil(m0): j runs while m0 - j > 0
    inv = inverse_theta(level, depth)
    terms = [(str(m0 - j), r1, 0, str(c)) for j, c in enumerate(inv) if c]
    if r1 == 0:  # then 4N | 4N*m0, so m0 is an integer
        lam0 = 0
        t = 1
        while level * t * t <= m0:
            lam0 -= inv[int(m0) - level * t * t]
            t += 1
        if lam0:
            terms.append(("0", 0, 0, str(Fraction(lam0))))
    return terms


# -- certificates ------------------------------------------------------------

class Fixtures:
    """Newform fixture records, read as plain JSON from the package's fixture directory."""

    def __init__(self, directory: str):
        self.records: dict[int, list[dict]] = {}
        for name in os.listdir(directory):
            if name.startswith("level_") and name.endswith(".json"):
                with open(os.path.join(directory, name), encoding="utf-8") as fh:
                    payload = json.load(fh)
                self.records[int(name[6:-5])] = payload["records"]

    def witness(self, n: int) -> dict | None:
        """The analytic witness: first fixture level dividing n with an odd-sign rank-1 record."""
        for d in sorted(self.records):
            if n % d:
                continue
            hits = [r for r in self.records.get(d, ())
                    if r["fricke_sign"] == -1 and r["analytic_rank"] == 1]
            if hits:
                rec = min(hits, key=lambda r: r["label"])
                return {"clause": "analytic_witness", "level": d, "label": rec["label"],
                        "analytic_rank": 1, "fricke_sign": -1, "data_source": "fixture"}
        return None


CLAUSE_ORDER = ("A1_prime", "A2_prime_square", "B_bound", "analytic_witness")


def expected_witnesses(factors: dict[int, int], fixtures: Fixtures) -> dict[str, dict]:
    """Every clause that applies to the level with this factorization, with its witness."""
    n = product(factors)
    out: dict[str, dict] = {}
    a1 = next((p for p in LISTED_PRIMES if p in factors), None)
    if a1 is None:
        a1 = min((p for p in factors if p > LARGE_PRIME_FLOOR), default=None)
    if a1 is not None:
        out["A1_prime"] = {"clause": "A1_prime", "prime": a1}
    a2 = min((p for p, e in factors.items() if p >= 11 and e >= 2), default=None)
    if a2 is not None:
        out["A2_prime_square"] = {"clause": "A2_prime_square", "prime": a2}
    if n > large_level_bound():
        out["B_bound"] = {"clause": "B_bound", "bound": str(large_level_bound())}
    w = fixtures.witness(n)
    if w is not None:
        out["analytic_witness"] = w
    return out


def check_certificate(cert: dict, factors: dict[int, int], fixtures: Fixtures) -> tuple[list[str], bool]:
    """Check a rendered certificate against the known factorization.

    Returns (problems, unknown_provable).  Soundness is strict: every witness
    must be the canonical witness of a clause that applies, in clause order,
    and the verdict must follow the witnesses.  A verdict "unknown" on a level
    where A1, A2 or B applies is not a problem; it is reported through the
    second value so that the completeness gap is measured rather than hidden.
    """
    n = product(factors)
    problems = []
    expected = expected_witnesses(factors, fixtures)
    if cert.get("level") != n:
        problems.append("level %r != %d" % (cert.get("level"), n))
    witnesses = cert.get("witnesses", [])
    clauses = [w.get("clause") for w in witnesses]
    if clauses != [c for c in CLAUSE_ORDER if c in clauses]:
        problems.append("witness clauses out of order: %s" % clauses)
    for w in witnesses:
        if expected.get(w.get("clause")) != w:
            problems.append("unsupported witness %s" % w)
    proven = bool(witnesses)
    if cert.get("verdict") != ("proven_nontrivial" if proven else "unknown"):
        problems.append("verdict %r does not follow the witnesses" % cert.get("verdict"))
    if cert.get("clause") != (clauses[0] if proven else "none"):
        problems.append("clause %r is not the first witness" % cert.get("clause"))
    unknown_provable = not proven and any(c in expected for c in CLAUSE_ORDER[:3])
    if not proven and "analytic_witness" in expected and not unknown_provable:
        problems.append("analytic witness at level %d missed" % expected["analytic_witness"]["level"])
    profile = cert.get("curve_profile")
    if profile is not None:
        if profile != cover_profile(n):
            problems.append("curve profile %s != %s" % (profile, cover_profile(n)))
    elif n <= PROFILE_GUARD_LEVEL:
        problems.append("curve profile missing at level %d" % n)
    return problems, unknown_provable


# -- lattices ----------------------------------------------------------------

def signature_and_det(gram) -> tuple[tuple[int, int], Fraction]:
    """Signature and determinant of a symmetric integer matrix by symmetric elimination."""
    m = [[Fraction(x) for x in row] for row in gram]
    n = len(m)
    pos = neg = 0
    det = Fraction(1)
    for i in range(n):
        if m[i][i] == 0:
            j = next((j for j in range(i + 1, n) if m[j][i] != 0), None)
            if j is None:
                return (pos, neg), Fraction(0)
            # add row/column j to row/column i: a congruence, so det is unchanged
            for k in range(n):
                m[i][k] += m[j][k]
            for k in range(n):
                m[k][i] += m[k][j]
        piv = m[i][i]
        if piv > 0:
            pos += 1
        else:
            neg += 1
        det *= piv
        for j in range(i + 1, n):
            f = m[j][i] / piv
            for k in range(n):
                m[j][k] -= f * m[i][k]
            for k in range(n):
                m[k][j] -= f * m[k][i]
    return (pos, neg), det


def check_lattice(block: dict, rank: int, disc_order: int, signature: tuple[int, int]) -> list[str]:
    problems = []
    sig, det = signature_and_det(block["gram"])
    prod_ed = 1
    for e in block["elementary_divisors"]:
        prod_ed *= e
    if block["rank"] != rank or len(block["gram"]) != rank:
        problems.append("rank %r != %d" % (block["rank"], rank))
    if block["disc_group_order"] != disc_order or abs(det) != disc_order or prod_ed != disc_order:
        problems.append("discriminant order %r, det %s, elementary divisors %r; expected %d"
                        % (block["disc_group_order"], det, block["elementary_divisors"], disc_order))
    if tuple(block["signature"]) != signature or sig != signature:
        problems.append("signature %r (computed %r) != %r" % (block["signature"], sig, signature))
    return problems
