import functools
import random
import time
from math import isqrt

import pytest

from cyclecert import arith, modcurves
from cyclecert.arith import LARGE_PRIME_FLOOR, LISTED_PRIMES, is_prime
from cyclecert.heegner import heegner_r_values
from cyclecert.modcurves import (
    LevelBoundError,
    cover_degree_over_x0,
    cover_profile,
    fricke_quotient_genus,
    minus_newspace_dim,
    x0_profile,
)
from oracles import (
    cover_cusps_by_divisor_sum,
    cover_image,
    cover_index_by_crt,
    cover_profile_by_enumeration,
    divisors_by_trial_division,
    fricke_prime_square_genus,
    fricke_quotient_genus_by_fixed_points,
    phi_by_trial_division,
    phi_of_prime_power,
    sl2_order_by_formula,
    x0_cusps_by_divisor_sum,
    x0_data_by_enumeration,
    x0_genus_by_formula,
)

GENUS_ONE_PRIMES = (37, 43, 53, 61, 79, 83, 89, 101, 131)
GENUS_TWO_PLUS_PRIMES = (67, 73, 97, 103, 107, 109, 113, 127)


def test_sl2_orders_by_brute_force():
    for m in range(1, 13):
        count = sum(
            1
            for a in range(m)
            for b in range(m)
            for c in range(m)
            for d in range(m)
            if (a * d - b * c) % m == 1 % m
        )
        assert sl2_order_by_formula(m) == count


def test_x0_profile_examples():
    assert x0_profile(1).genus == 0
    p37 = x0_profile(37)
    assert p37.genus == 2
    assert (p37.index, p37.nu2, p37.nu3, p37.cusps) == (38, 2, 2, 2)
    assert x0_profile(11).genus == 1
    assert x0_profile(128).genus == 9


def test_x0_profile_against_enumeration_oracle():
    for n in list(range(1, 41)) + [128]:
        index, cusps, nu2, nu3 = x0_data_by_enumeration(n)
        prof = x0_profile(n)
        assert (prof.index, prof.cusps, prof.nu2, prof.nu3) == (index, cusps, nu2, nu3)


def test_x0_profile_at_level_near_10_to_the_12():
    p, q = 999983, 1000003
    start = time.monotonic()
    prof = x0_profile(p * q)
    assert time.monotonic() - start < 1.0
    assert prof.index == (p + 1) * (q + 1)
    assert (prof.cusps, prof.nu2, prof.nu3) == (4, 0, 0)
    assert prof.genus == 1 + prof.index // 12 - 2
    # at 2^40 the divisors 2^i contribute phi(2^min(i, 40 - i)), 3 * 2^19 in all
    assert x0_profile(2**40).cusps == 3 * 2**19


def test_cover_profile_level_one_is_the_classical_one():
    prof = cover_profile(1)
    assert (prof.index, prof.cusps, prof.genus, prof.nu2, prof.nu3) == (6, 3, 0, 0, 0)


def test_cover_profiles_pinned():
    # regression values; genus follows from index and cusps since nu2 = nu3 = 0
    expected = {2: (12, 4, 0), 3: (24, 6, 0), 5: (72, 12, 1), 6: (96, 16, 1)}
    for n, (index, cusps, genus) in expected.items():
        prof = cover_profile(n)
        assert (prof.index, prof.cusps, prof.genus) == (index, cusps, genus)


def test_cover_is_torsion_free_up_to_30():
    for n in range(1, 31):
        prof = cover_profile(n)
        assert prof.nu2 == 0 and prof.nu3 == 0


def test_cover_index_multiplicative_over_prime_powers():
    for n in range(1, 31):
        m = 2 * n
        direct = sl2_order_by_formula(m) // len(cover_image(m))
        assert direct == cover_index_by_crt(n)


def test_cover_profile_against_enumeration_oracle():
    for n in list(range(1, 61)) + [64, 97, 120]:
        prof = cover_profile(n)
        assert (prof.index, prof.cusps, prof.nu2, prof.nu3) == cover_profile_by_enumeration(n), n


def test_cover_profile_at_any_level_below_the_factoring_bound():
    prof = cover_profile(61)
    assert (prof.index, prof.cusps, prof.nu2, prof.nu3) == cover_profile_by_enumeration(61)
    p, q = 999983, 1000003
    start = time.perf_counter()
    prof = cover_profile.__wrapped__(p * q)
    assert time.perf_counter() - start < 0.1
    # |PSL2(Z/2N)| / N at N = pq: 4N**2 * (3/4) * (1 - 1/p**2) * (1 - 1/q**2)
    assert prof.index == 3 * (p * p - 1) * (q * q - 1)
    assert (prof.nu2, prof.nu3) == (0, 0)
    # above the bound, with the composite part left unsplit, it fails fast
    start = time.perf_counter()
    with pytest.raises(LevelBoundError):
        cover_profile.__wrapped__(999999999989 * 1000000000039)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("p,genus", [(37, 1), (2, 0), (3, 0), (5, 0), (31, 0)])
def test_fricke_quotient_examples(p, genus):
    assert fricke_quotient_genus(p) == genus


def test_fricke_quotient_genus_table():
    for p in GENUS_ONE_PRIMES:
        assert fricke_quotient_genus(p) == 1
    for p in GENUS_TWO_PLUS_PRIMES:
        assert fricke_quotient_genus(p) >= 2


def test_a1_primes_are_exactly_the_positive_genus_fricke_quotients():
    # the A1 clause rests on a listed set of primes; the Fricke quotient of
    # X_0(p) has positive genus at exactly those primes, for every p <= 2000
    for p in filter(is_prime, range(2, 2001)):
        assert (fricke_quotient_genus(p) >= 1) == (p in LISTED_PRIMES or p > LARGE_PRIME_FLOOR), p


def test_fricke_riemann_hurwitz_consistency():
    # 2*g0 - 2 = 2*(2*g* - 2) + nu with nu the fixed-point count from
    # primitive class numbers, for every prime 5 <= p <= 131
    from cyclecert.heegner import class_number

    for p in (q for q in range(5, 132) if all(q % d for d in range(2, q))):
        nu = class_number(4 * p) + (class_number(p) if p % 4 == 3 else 0)
        g0 = x0_profile(p).genus
        gs = fricke_quotient_genus(p)
        assert 2 * g0 - 2 == 2 * (2 * gs - 2) + nu


def test_ogg_fixed_point_count_matches_fricke_quotient_genus_at_primes():
    # the general count, with its own X_0(N) genus and class numbers, agrees
    # with the library's prime-level route, and gives the classical genera
    # of X_0(N)/w_N at composite levels
    for p in filter(is_prime, range(5, 2001)):
        assert fricke_quotient_genus_by_fixed_points(p) == fricke_quotient_genus(p), p
    for genus, levels in ((0, (26, 35, 39, 50)), (1, (22, 28, 30, 33)), (2, (42, 46))):
        assert [fricke_quotient_genus_by_fixed_points(n) for n in levels] == [genus] * len(levels)
    assert all(x0_genus_by_formula(n) == x0_profile(n).genus for n in range(1, 200))


def test_prime_square_class_number_closed_form():
    # h(-4p**2) = (p - (-4/p))/2, the class number of the order of conductor p in Z[i]
    from cyclecert.heegner import class_number

    for p in filter(is_prime, range(3, 400)):
        assert class_number(4 * p * p) == (p - (1 if p % 4 == 1 else -1)) // 2, p


def test_a2_floor_is_eleven():
    """The A2 clause's floor: X_0(p**2)/w has genus at least 2 exactly for the primes 11 <= p < 10**5."""
    from cyclecert.certify import CLAUSE_A2, certify

    sieve = bytearray([1]) * 10**5
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(10**5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, 10**5, i)))
    odd_primes = [p for p in range(3, 10**5) if sieve[p]]
    # X_0(4) has genus 0, so its quotient does too; odd p by the closed form
    assert [p for p in odd_primes if fricke_prime_square_genus(p) >= 2] == [p for p in odd_primes if p >= 11]
    for p in odd_primes[:6]:
        assert fricke_prime_square_genus(p) == fricke_quotient_genus_by_fixed_points(p * p)
    for p in (2, 3, 5, 7, 11, 13):
        fired = {w["clause"] for w in certify(p * p).witnesses}
        assert (CLAUSE_A2 in fired) == (p >= 11), p


def test_fricke_rejects_composites():
    with pytest.raises(ValueError):
        fricke_quotient_genus(6)
    with pytest.raises(ValueError):
        minus_newspace_dim(74)


@pytest.mark.parametrize("p,dim", [(37, 1), (2, 0), (131, 1), (67, 2)])
def test_minus_newspace_dim(p, dim):
    assert minus_newspace_dim(p) == dim


def test_cover_degree_over_x0():
    assert cover_degree_over_x0(1) == 6
    for n in (2, 3, 5, 6):
        num = cover_profile(n).index
        den = x0_profile(n).index
        assert cover_degree_over_x0(n) * den == num
    # above the level the cover profile was once enumerated to
    assert cover_degree_over_x0(97) == cover_profile(97).index // x0_profile(97).index == 288


def test_level_bound_error_is_the_arith_class():
    assert LevelBoundError is arith.LevelBoundError
    assert issubclass(LevelBoundError, ValueError)


def test_cover_degree_closed_form_against_enumeration():
    for n in range(1, 61):
        assert cover_degree_over_x0(n) == cover_profile_by_enumeration(n)[0] // x0_profile(n).index, n


def test_cover_degree_closed_form_is_the_index_ratio():
    rng = random.Random(20)
    levels = list(range(1, 5001)) + [rng.randrange(1, 10**15) for _ in range(200)]
    for n in levels:
        num = cover_profile.__wrapped__(n).index
        den = x0_profile(n).index
        assert num % den == 0 and cover_degree_over_x0(n) == num // den, n
    start = time.perf_counter()
    with pytest.raises(LevelBoundError):
        cover_degree_over_x0(999999999989 * 1000000000039)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "fn", [x0_profile, cover_profile.__wrapped__, cover_degree_over_x0], ids=lambda fn: fn.__name__
)
def test_each_level_is_factored_once(monkeypatch, fn):
    calls = []
    real = arith.factor

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "factor", counted)
    for n in (1, 2, 97, 360, 999983 * 1000003):
        del calls[:]
        fn(n)
        assert calls == [n], (fn, n)


@pytest.mark.parametrize("level", [0, -6])
@pytest.mark.parametrize(
    "call",
    [x0_profile, cover_profile, cover_degree_over_x0, lambda level: heegner_r_values(level, -3)],
    ids=["x0_profile", "cover_profile", "cover_degree_over_x0", "heegner_r_values"],
)
def test_level_below_one_is_rejected(call, level):
    with pytest.raises(ValueError, match="^level must be a positive integer$"):
        call(level)


def test_cusp_closed_forms_match_the_divisor_sums():
    phi = functools.cache(phi_by_trial_division)
    for n in range(1, 5001):
        assert x0_profile(n).cusps == x0_cusps_by_divisor_sum(n, divisors_by_trial_division(n), phi), n
    for n in range(2, 5001):
        assert cover_profile(n).cusps == cover_cusps_by_divisor_sum(n, divisors_by_trial_division(2 * n), phi), n
    # 101**12 lies above the factoring bound, and its profiles are refused
    for p, top in ((2, 12), (3, 12), (101, 11)):
        for e in range(1, top + 1):
            n = p**e
            powers = [p**i for i in range(e + 1)]
            assert [phi_of_prime_power(q, p) for q in powers] == [phi_by_trial_division(q) for q in powers]
            assert x0_profile(n).cusps == x0_cusps_by_divisor_sum(n, powers, lambda q: phi_of_prime_power(q, p)), n
            # the divisors of 2N are the powers of p and twice them, or the powers of 2 up to 2N
            divisors = [2**i for i in range(e + 2)] if p == 2 else powers + [2 * q for q in powers]
            assert cover_profile(n).cusps == cover_cusps_by_divisor_sum(n, divisors, phi_by_trial_division), n
    for profile in (x0_profile, cover_profile):
        with pytest.raises(LevelBoundError):
            profile(101**12)


def test_odd_twice_cusp_count_raises_without_asserts():
    # a raise, not an assert: the profile goes into certificates, also under python -O.  A factorization
    # that leaves out the level's 2 counts the cusps of 2N = 2, where twice the count is 3
    with pytest.raises(RuntimeError, match="twice the cusp count at level 2 is odd"):
        modcurves._cover_profile(2, {})
