import random
import time
from math import gcd

import pytest
from oracles import is_factorization

from cyclecert.arith import PSI13, divisors, factor, is_prime, large_level_bound, phi
from cyclecert.certify import CLAUSE_A1, VERDICT_PROVEN, certify
from cyclecert.modcurves import LevelBoundError, sl2_order, x0_profile
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
    for fn in (x0_profile, sl2_order):
        start = time.perf_counter()
        with pytest.raises(LevelBoundError):
            fn(n)
        assert time.perf_counter() - start < 0.1
