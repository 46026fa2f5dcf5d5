import random
import time
from math import gcd, prod

import pytest
from oracles import is_factorization, is_prime_by_13_bases, is_strong_probable_prime

from cyclecert import arith
from cyclecert.arith import PSI13, divisors, factor, is_prime, large_level_bound, phi
from cyclecert.certify import CLAUSE_A1, VERDICT_PROVEN, certify
from cyclecert.modcurves import LevelBoundError, cover_degree_over_x0, x0_profile
from cyclecert.newforms import witness_minus_rank1

BOUND = large_level_bound()
# the two primes nearest below sqrt(BOUND), and a product of primes close to
# sqrt(BOUND) / 2 and 2 * sqrt(BOUND): rho's hardest inputs below the bound
NEAR_SQRT_PRODUCTS = (
    221263420501 * 221263420589,
    110631710279 * 442525841237,
)


def test_factor_every_small_n():
    for n in range(1, 20001):
        factors, cofactor = factor(n)
        assert cofactor == 1 and is_factorization(n, factors), n
        assert list(factors) == sorted(factors), n


def test_factor_random_below_bound():
    rng = random.Random(20231)
    for _ in range(200):
        n = rng.randrange(1, BOUND + 1)
        factors, cofactor = factor(n)
        assert cofactor == 1 and is_factorization(n, factors), n


@pytest.mark.parametrize("n", NEAR_SQRT_PRODUCTS)
def test_factor_products_of_primes_near_sqrt_bound(n):
    assert n <= BOUND
    start = time.perf_counter()
    factors, cofactor = factor(n)
    assert time.perf_counter() - start < 1.0
    assert cofactor == 1 and is_factorization(n, factors) and len(factors) == 2


def test_factor_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    cases = [73**3, 73**5 * 79, 1000003**3, 1000003**2 * 1000033, BOUND, BOUND - 1]
    cases += [rng.randrange(1, 10**15) for _ in range(40)]
    for n in cases:
        assert factor(n) == (sympy.factorint(n), 1), n


def test_factor_leaves_composite_above_bound_unsplit():
    p, q = 999999999989, 1000000000039
    assert p * q > BOUND
    assert factor(2 * 3 * p * q) == ({2: 1, 3: 1}, p * q)
    # a prime square and a prime above the bound are still recognised
    assert factor(p * p) == ({p: 2}, 1)
    q = 48957501300891817233637  # the least prime above the bound
    assert factor(q) == ({q: 1}, 1) and factor(5 * q) == ({5: 1, q: 1}, 1)


def test_never_names_a_composite_as_prime():
    assert PSI13 == 1287836182261 * 2575672364521
    with pytest.raises(ValueError):
        is_prime(PSI13)
    with pytest.raises(ValueError):
        is_prime(PSI13 + 2)
    assert is_prime(3317044064679887385961813)  # the greatest prime below PSI13
    assert factor(PSI13) == ({}, PSI13)
    assert factor(4 * PSI13) == ({2: 2}, PSI13)


def test_is_prime_agrees_with_all_13_bases_below_200000():
    assert list(filter(is_prime, range(200000))) == list(filter(is_prime_by_13_bases, range(200000)))


def test_is_prime_agrees_with_all_13_bases_in_every_band():
    # band [psi_(k-1), psi_k) is decided by the first k bases; sample numbers
    # prime to every base, so that Miller-Rabin runs, and primes, where it
    # runs every base it is given
    rng = random.Random(2023)
    bases = prod(arith._MR_BASES)
    lo = 2
    for psi, _ in arith._PSI:
        samples = []
        while len(samples) < 20:
            n = rng.randrange(lo, psi)
            if gcd(n, bases) == 1:
                samples.append(n)
        for _ in range(3):
            n = rng.randrange(lo, psi) | 1
            while not is_prime_by_13_bases(n):
                n += 2
            samples.append(n)
        samples += [lo, psi - 1]
        for n in samples:
            assert is_prime(n) == is_prime_by_13_bases(n), n
        lo = psi


def test_each_psi_is_a_composite_strong_pseudoprime_to_its_bases():
    table = arith._PSI
    assert [psi for psi, _ in table] == sorted(psi for psi, _ in table) and table[-1] == (PSI13, 13)
    assert [k for _, k in table] == sorted(k for _, k in table)
    for psi, k in table:
        assert all(is_strong_probable_prime(psi, a) for a in arith._MR_BASES[:k]), psi
        if psi < PSI13:
            # a Miller-Rabin witness proves psi composite; psi opens the next
            # band, whose bases must find one
            assert not is_prime_by_13_bases(psi) and not is_prime(psi), psi
    assert PSI13 == 1287836182261 * 2575672364521


def test_factor_rejects_nonpositive():
    for n in (0, -5):
        with pytest.raises(ValueError):
            factor(n)


def test_divisors_against_brute_force():
    for n in range(1, 2001):
        assert divisors(factor(n)[0]) == [d for d in range(1, n + 1) if n % d == 0], n


def test_phi_against_brute_force():
    for n in range(1, 2001):
        assert phi(factor(n)[0]) == sum(1 for u in range(1, n + 1) if gcd(u, n) == 1), n


def test_certify_names_a1_prime_of_large_semiprime():
    cert = certify(1000003 * 1000033)
    assert cert.verdict == VERDICT_PROVEN and cert.clause == CLAUSE_A1
    assert cert.witnesses[0] == {"clause": CLAUSE_A1, "prime": 1000003}
    assert "factorization incomplete" not in cert.justification


def test_witness_scan_factors_beyond_trial_division():
    level, record = witness_minus_rank1(37 * (10**12 + 39))
    assert level == 37 and record.analytic_rank == 1


def test_profiles_fail_fast_above_bound():
    n = 999999999989 * 1000000000039
    for fn in (x0_profile, cover_degree_over_x0):
        start = time.perf_counter()
        with pytest.raises(LevelBoundError):
            fn(n)
        assert time.perf_counter() - start < 0.1
