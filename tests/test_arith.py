import random
import time
from fractions import Fraction
from math import gcd, prod

import pytest
from oracles import (
    LEAST_STRONG_PSEUDOPRIMES,
    is_factorization,
    is_prime_bpsw,
    is_prime_by_13_bases,
    is_strong_lucas_probable_prime,
    is_strong_probable_prime,
)

import cyclecert
from cyclecert import arith, heegner
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
    cases = [rng.randrange(1, BOUND + 1) for _ in range(200)]
    # prime powers above the trial primes, the bound itself, and 40 seeded n below 10**15
    rng = random.Random(7)
    cases += [73**3, 73**5 * 79, 1000003**3, 1000003**2 * 1000033, BOUND, BOUND - 1]
    cases += [rng.randrange(1, 10**15) for _ in range(40)]
    for n in cases:
        factors, cofactor = factor(n)
        assert cofactor == 1 and is_factorization(n, factors), n


@pytest.mark.parametrize("n", NEAR_SQRT_PRODUCTS)
def test_factor_products_of_primes_near_sqrt_bound(n):
    assert n <= BOUND
    start = time.perf_counter()
    factors, cofactor = factor(n)
    assert time.perf_counter() - start < 1.0
    assert cofactor == 1 and is_factorization(n, factors) and len(factors) == 2


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
    primes = list(filter(is_prime, range(200000)))
    assert primes == list(filter(is_prime_by_13_bases, range(200000)))
    assert primes == list(filter(is_prime_bpsw, range(200000)))


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
            assert is_prime(n) == is_prime_by_13_bases(n) == is_prime_bpsw(n), n
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
    # the oracle's own list, typed out apart from the kernel's table
    assert [psi for psi, _ in table] == list(LEAST_STRONG_PSEUDOPRIMES)
    assert not any(map(is_prime_bpsw, LEAST_STRONG_PSEUDOPRIMES))


def test_bpsw_needs_both_halves():
    # strong pseudoprimes to base 2, which only the Lucas half rejects, and
    # strong Lucas pseudoprimes, which only the base-2 half rejects
    base_2 = (2047, 3277, 4033, 4681, 8321)
    lucas = (5459, 5777, 10877, 16109, 18971)
    assert all(is_strong_probable_prime(n, 2) for n in base_2)
    assert all(map(is_strong_lucas_probable_prime, lucas))
    assert not any(map(is_prime_bpsw, base_2 + lucas))


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


# every public entry that takes a level, each called with the level alone varied
LEVEL_ENTRIES = {
    "certify": lambda level: cyclecert.certify(level),
    "witness_minus_rank1": lambda level: cyclecert.witness_minus_rank1(level),
    "x0_profile": lambda level: cyclecert.x0_profile(level),
    "cover_profile": lambda level: cyclecert.cover_profile(level),
    "cover_degree_over_x0": lambda level: cyclecert.cover_degree_over_x0(level),
    "fricke_quotient_genus": lambda level: cyclecert.fricke_quotient_genus(level),
    "minus_newspace_dim": lambda level: cyclecert.minus_newspace_dim(level),
    "heegner_r_values": lambda level: cyclecert.heegner_r_values(level, -23),
    "HeegnerIndex": lambda level: cyclecert.HeegnerIndex(level, -4, 0),
    "special_divisor_index": lambda level: cyclecert.special_divisor_index(level, Fraction(7, 8), 1),
    "decompose_heegner": lambda level: cyclecert.decompose_heegner(level, Fraction(7, 8), 1),
    "GramLattice": lambda level: cyclecert.GramLattice(3, level),
    "DiscElement": lambda level: cyclecert.DiscElement(level, 1, 0),
    "DivisorClass": lambda level: cyclecert.DivisorClass(level),
    "scalar_rep_count": lambda level: cyclecert.scalar_rep_count(level, 1, 0),
    "NewformRecord": lambda level: cyclecert.NewformRecord(level, "a", 2, -1, 1, "fixture"),
    "fetch_newforms": lambda level: cyclecert.NewformClient().fetch_newforms(level),
    "Certificate": lambda level: cyclecert.Certificate(level, "none", (), None, ""),
    "CurveProfile": lambda level: cyclecert.CurveProfile("x0", level, 12, 0, 0, 2),
}


@pytest.mark.parametrize("level", [0, -3, 2.0, True, "7"], ids=repr)
@pytest.mark.parametrize("entry", sorted(LEVEL_ENTRIES))
def test_every_entry_applies_the_one_level_rule(entry, level):
    # none is a level: 2.0 and True compare like ints, so a check by value alone lets them through
    with pytest.raises(ValueError, match="^level must be a positive integer$"):
        LEVEL_ENTRIES[entry](level)


# every entry under the discriminant rule (arith._check_disc), with the discriminant alone varied at level 7,
# and every entry under the count rule (arith._check_positive)
DISC_ENTRIES = {
    "heegner_r_values": lambda disc: heegner.heegner_r_values(7, disc),
    "HeegnerIndex": lambda disc: heegner.HeegnerIndex(7, disc, 5),
}
COUNT_ENTRIES = {
    "factor": factor,
    "reduced_forms": heegner.reduced_forms,
    "hurwitz_class_number": heegner.hurwitz_class_number,
    "class_number": heegner.class_number,
    "eichler_relation_sides": heegner.eichler_relation_sides,
}


@pytest.mark.parametrize("disc", [-3.0, True, -5], ids=repr)
@pytest.mark.parametrize("entry", sorted(DISC_ENTRIES))
def test_every_entry_applies_the_one_discriminant_rule(entry, disc):
    # -3.0 and True pass a check of the residue alone; HeegnerIndex names r beside disc in its type message
    message = "^disc must be 0 or 1 mod 4$" if disc == -5 else "^disc (must be an integer|and r must be integers)$"
    with pytest.raises(ValueError, match=message):
        DISC_ENTRIES[entry](disc)


@pytest.mark.parametrize("n", [0, -4, True, 23.0, "23"], ids=repr)
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRIES))
def test_every_entry_applies_the_one_count_rule(entry, n):
    # True and 23.0 hash as 1 and 23, but the cache keys a lone argument by itself only for an int
    heegner.hurwitz_class_number(1)
    heegner.hurwitz_class_number(23)
    with pytest.raises(ValueError, match="^n must be a positive integer$"):
        COUNT_ENTRIES[entry](n)


def _r1(m0):
    # at level 1, m0 = 3/4 is a valid target at r1 = 1, and m0 = 1 (True) at r1 = 0
    return 0 if m0 is True else 1


def _hand_built(coeff):
    gen = cyclecert.AmbientGenerator(Fraction(3, 4), cyclecert.DiscElement(1, 1, 0))
    return cyclecert.PullbackDecomposition(1, (Fraction(3, 4), 1), ((gen, coeff),))


# every entry under the rational rule (arith._check_rational), with one m0, m or coefficient varied at level 1
RATIONAL_ENTRIES = {
    "special_divisor_index": lambda m0: cyclecert.special_divisor_index(1, m0, _r1(m0)),
    "decompose_heegner": lambda m0: cyclecert.decompose_heegner(1, m0, _r1(m0)),
    "AmbientGenerator": lambda m: cyclecert.AmbientGenerator(m, cyclecert.DiscElement(1, _r1(m), 0)),
    "DivisorClass_key": lambda m0: cyclecert.DivisorClass(1, {(m0, _r1(m0)): 1}),
    "DivisorClass_coeff": lambda coeff: cyclecert.DivisorClass(1, {(Fraction(3, 4), 1): coeff}),
    "DivisorClass_omega": lambda coeff: cyclecert.DivisorClass(1, omega_coeff=coeff),
    "DivisorClass_cusp": lambda coeff: cyclecert.DivisorClass(1, cusp_coeff=coeff),
    "DivisorClass.scaled": lambda factor: cyclecert.DivisorClass(1).scaled(factor),
    "verify_decomposition": lambda coeff: cyclecert.verify_decomposition(_hand_built(coeff)),
    "scalar_rep_count": lambda value: cyclecert.scalar_rep_count(1, value, _r1(value)),
}


@pytest.mark.parametrize("value", [0.75, True, "3/4"], ids=repr)
@pytest.mark.parametrize("entry", sorted(RATIONAL_ENTRIES))
def test_every_entry_applies_the_one_rational_rule(entry, value):
    # each equals or parses to a valid rational, so a coercion through Fraction() lets it through
    with pytest.raises(ValueError, match="^a rational value must be an int or a Fraction$"):
        RATIONAL_ENTRIES[entry](value)


def test_chow_divisor_applies_the_level_rule_behind_the_level_comparison():
    # 2.0 == 2 passes the comparison with the decomposition's level
    decomp = cyclecert.decompose_heegner(2, Fraction(7, 8), 1)
    with pytest.raises(ValueError, match="^level must be a positive integer$"):
        cyclecert.chow_heegner_divisor(2.0, decomp)
