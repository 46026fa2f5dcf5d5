import random
import time
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from cyclecert import heegner
from cyclecert.arith import LevelBoundError, is_prime, large_level_bound
from cyclecert.heegner import (
    BQForm,
    _p1_canon,
    _sl2_completion,
    CongruenceError,
    HeegnerIndex,
    class_number,
    eichler_relation_sides,
    enumerate_heegner_divisor,
    heegner_r_values,
    hurwitz_class_number,
    reduced_forms,
    special_divisor_index,
)
from oracles import (
    eichler_relation_sides_by_fractions,
    heegner_r_table_by_scan,
    heegner_r_values_by_scan,
    hurwitz_table_by_forms,
    coset_reps_by_sweep,
    egcd_recursive,
    heegner_divisor_by_coset_scan,
    heegner_divisor_by_local_kernels,
    labels_by_coset_scan,
    p1_canon_by_unit_lifts,
    p1_canon_by_units,
    psi_by_trial_division,
    reduced_forms_by_walk,
    transformed,
)


@pytest.mark.parametrize(
    "n,expected",
    [
        (3, Fraction(1, 3)),
        (4, Fraction(1, 2)),
        (7, 1),
        (8, 1),
        (11, 1),
        (12, Fraction(4, 3)),
        (15, 2),
        (16, Fraction(3, 2)),
        (20, 2),
        (23, 3),
        (27, Fraction(4, 3)),
        (1, 0),
        (2, 0),
    ],
)
def test_hurwitz_pinned_values(n, expected):
    assert hurwitz_class_number(n) == expected


def test_hurwitz_rejects_nonpositive():
    with pytest.raises(ValueError):
        hurwitz_class_number(0)
    with pytest.raises(ValueError):
        hurwitz_class_number(-3)


def test_reduced_forms_match_the_while_walk():
    # every n <= 6000, then 12 seeded n in [10^5, 10^6) of the shapes 4*9*p
    # and 3*49*p, p prime, with -n a discriminant
    for n in range(1, 6001):
        assert reduced_forms(n) == reduced_forms_by_walk(n)
    rng = random.Random(6000)
    for square, lo, hi in ((36, 2778, 27778), (147, 681, 6803)):
        shapes = [square * p for p in range(lo, hi) if is_prime(p) and square * p % 4 in (0, 3)]
        for n in rng.sample(shapes, 6):
            assert 10**5 <= n < 10**6
            assert reduced_forms(n) == reduced_forms_by_walk(n)


def test_sl2_completion_matches_the_recursive_egcd():
    # the Bezout pair, not only the gcd, fixes the representatives; on the domain
    # of canonical labels, coprime p >= 1 and s >= 0: every pair below 600, then
    # 10^5 seeded pairs up to 2^64
    for p in range(1, 600):
        for s in range(600):
            if gcd(p, s) == 1:
                assert (1, *_sl2_completion(p, s)) == egcd_recursive(p, s)
    rng = random.Random(10**5)
    checked = 0
    while checked < 10**5:
        p, s = rng.randrange(1, 2**64), rng.randrange(2**64)
        if gcd(p, s) == 1:
            assert (1, *_sl2_completion(p, s)) == egcd_recursive(p, s)
            checked += 1


def test_enumeration_matches_the_local_kernel_reference():
    # every index with N <= 40 and -300 < D < 0, gcd(D, N) > 1 included, against
    # the BQForm pipeline of per-form label sets and the recursive extended gcd
    checked = 0
    for level in range(1, 41):
        for disc in range(-3, -300, -1):
            if disc % 4 in (0, 1):
                for r in heegner_r_values(level, disc):
                    idx = HeegnerIndex(level, disc, r)
                    assert enumerate_heegner_divisor(idx) == heegner_divisor_by_local_kernels(idx)
                    checked += 1
    assert checked == 5809


def test_a_broken_representative_raises_even_under_python_O(monkeypatch):
    # a completion with determinant 0 keeps N | a' but sends b' to 0, not r;
    # the check is a raise, not an assert, so `python -O` keeps it.  At this
    # index two forms have the unit label (1, 1), the one unit label that the
    # completion still handles
    monkeypatch.setattr(heegner, "_sl2_completion", lambda p, s: (0, 0))
    with pytest.raises(RuntimeError, match="breaks N"):
        enumerate_heegner_divisor(HeegnerIndex(2, -23, 1))


@pytest.mark.parametrize(
    "level,disc,r",
    [
        (6, -23, 1),  # only labels (g, s) with 1 < g = gcd(x, N) at a composite level
        (7, -3, 5),  # the automorph shape [1, 1, 1], labels glued by _p1_canon
        (9, -99, 3),  # 3 | gcd(D, N) divides every entry of the rows: the searched P^1(Z/9)
    ],
)
def test_a_broken_completion_raises_on_every_path_through_it(monkeypatch, level, disc, r):
    # at each index the forms that reach the completion all take the named path;
    # the others take the unit shortcut ((1, 0), (s, 1)) and stay valid
    monkeypatch.setattr(heegner, "_sl2_completion", lambda p, s: (0, 0))
    with pytest.raises(RuntimeError, match="breaks N"):
        enumerate_heegner_divisor(HeegnerIndex(level, disc, r))


def test_enumeration_matches_the_local_kernel_reference_at_composite_bench_levels():
    # the composite levels of the heegner-enum workload, where more than half of
    # the forms take a non-unit label: 12 seeded D per level, every r, gcd(D, N) > 1 included
    rng = random.Random(60120)
    for level in (60, 120, 180, 250):
        discs = [d for d in range(-3, -5001, -1) if d % 4 in (0, 1) and heegner_r_values(level, d)]
        for disc in rng.sample(discs, 12):
            for r in heegner_r_values(level, disc):
                idx = HeegnerIndex(level, disc, r)
                assert enumerate_heegner_divisor(idx) == heegner_divisor_by_local_kernels(idx)


def test_reduced_form_conventions():
    forms = reduced_forms(23)
    assert [(f.a, f.b, f.c) for f in forms] == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]
    for n in range(3, 200):
        if n % 4 in (1, 2):
            continue
        for f in reduced_forms(n):
            assert f.discriminant() == -n
            assert abs(f.b) <= f.a <= f.c
            if abs(f.b) == f.a or f.a == f.c:
                assert f.b >= 0


@pytest.mark.parametrize(
    "n,expected",
    [(3, 1), (4, 1), (23, 3), (148, 2), (172, 3), (268, 3), (388, 4)],
)
def test_primitive_class_number(n, expected):
    assert class_number(n) == expected


def test_eichler_relation_small_range():
    for n in range(1, 61):
        lhs, rhs = eichler_relation_sides(n)
        assert lhs == rhs


@pytest.mark.parametrize(
    "level,disc,expected",
    [(1, -4, [0]), (1, -3, [1]), (37, -3, [21, 53])],
)
def test_r_values_examples(level, disc, expected):
    assert heegner_r_values(level, disc) == expected


def test_r_values_match_the_residue_scan():
    # every N <= 300 and every disc = 0, 1 mod 4 with |disc| < 400, positive ones included
    for level in range(1, 301):
        table = heegner_r_table_by_scan(level)
        for disc in range(-399, 400):
            if disc % 4 in (0, 1):
                assert heegner_r_values(level, disc) == table.get(disc % (4 * level), []), (level, disc)
    # levels with a large prime factor, a prime square and a disc divisible by the level's primes
    for level, disc in ((9998, -7), (3 * 10007, -11), (4 * 4999, -4 * 4999), (8 * 97**2, -4 * 97), (4999, 5)):
        assert heegner_r_values(level, disc) == heegner_r_values_by_scan(level, disc), (level, disc)


def test_r_values_above_the_factoring_bound_raise_level_bound_error():
    n = (10**12 + 39) * (10**12 + 61)
    assert n > large_level_bound()
    with pytest.raises(LevelBoundError):
        heegner_r_values(n, -7)


def test_eichler_relation_twelfths_match_the_fraction_sum(monkeypatch):
    # class numbers from an independent walk of every reduced form with |D| <= 8000, each
    # form weighed by its shape; the library's closed-form weights must match every one
    table = hurwitz_table_by_forms(8000)
    assert table[1:8001] == [hurwitz_class_number(m) for m in range(1, 8001)]
    monkeypatch.setattr(heegner, "hurwitz_class_number", table.__getitem__)
    for n in range(1, 2001):
        sides = eichler_relation_sides(n)
        assert sides == eichler_relation_sides_by_fractions(n, table.__getitem__), n
        assert sides[0] == sides[1] and type(sides[0]) is Fraction, n


def test_r_values_closed_under_negation():
    for level in range(1, 13):
        for disc in range(-3, -101, -1):
            if disc % 4 in (2, 3):
                continue
            rs = heegner_r_values(level, disc)
            assert sorted((-r) % (2 * level) for r in rs) == rs


@pytest.mark.parametrize(
    "level,disc,r,degree",
    [
        (1, -4, 0, Fraction(1, 2)),
        (1, -3, 1, Fraction(1, 3)),
        (2, -23, 1, 3),
    ],
)
def test_divisor_degree_examples(level, disc, r, degree):
    div = enumerate_heegner_divisor(HeegnerIndex(level=level, disc=disc, r=r))
    assert div.degree == degree


def test_divisor_class_representatives_are_valid():
    for level, disc, r in [(2, -23, 1), (3, -20, 2), (5, -4, 4), (6, -23, 1)]:
        div = enumerate_heegner_divisor(HeegnerIndex(level=level, disc=disc, r=r))
        for form, weight in div.classes:
            assert form.a % level == 0
            assert form.a > 0
            assert form.discriminant() == disc
            assert (form.b - r) % (2 * level) == 0
            assert weight in (1, Fraction(1, 2), Fraction(1, 3))


def test_divisor_self_paired_flag():
    assert enumerate_heegner_divisor(HeegnerIndex(1, -4, 0)).self_paired
    assert enumerate_heegner_divisor(HeegnerIndex(2, -4, 2)).self_paired
    assert not enumerate_heegner_divisor(HeegnerIndex(2, -23, 1)).self_paired


def test_degree_matches_class_number_on_coprime_range():
    # weighted degree equals H(|D|) for gcd(D, N) = 1; a denser run is the
    # acceptance suite's job, this covers every N with a sample of D
    for level in range(1, 11):
        for disc in range(-3, -101, -1):
            if disc % 4 in (2, 3) or gcd(disc, level) != 1:
                continue
            for r in heegner_r_values(level, disc):
                div = enumerate_heegner_divisor(HeegnerIndex(level, disc, r))
                assert div.degree == hurwitz_class_number(-disc)


def _sl2_reduce(a, b, c):
    while True:
        if c < a or (c == a and b < 0):
            a, b, c = c, -b, a
        elif not (-a < b <= a):
            shift = (a - b) // (2 * a)
            b2 = b + 2 * shift * a
            c = a * shift * shift + b * shift + c
            b = b2
        else:
            if a == c and b < 0:
                b = -b
            return (a, b, c)


def test_degree_identity_needs_coprimality():
    # hand-checked by brute-force level-2 equivalence: the family at
    # (N, D, r) = (2, -16, 0) splits into one class over the primitive form
    # (1,0,4) and two over the imprimitive (2,0,2), so the weighted degree
    # is 1 + 1/2 + 1/2 = 2 rather than H(16) = 3/2
    div = enumerate_heegner_divisor(HeegnerIndex(2, -16, 0))
    assert div.degree == 2 != hurwitz_class_number(16)
    reductions = sorted(
        (_sl2_reduce(f.a, f.b, f.c), w) for f, w in div.classes
    )
    assert reductions == [
        ((1, 0, 4), 1),
        ((2, 0, 2), Fraction(1, 2)),
        ((2, 0, 2), Fraction(1, 2)),
    ]


@pytest.mark.parametrize(
    "level,m0,r1,disc,r",
    [
        (1, Fraction(1), 0, -4, 0),
        (1, Fraction(3, 4), 1, -3, 1),
        (37, Fraction(3, 148), 21, -3, 21),
    ],
)
def test_special_divisor_index_examples(level, m0, r1, disc, r):
    idx = special_divisor_index(level, m0, r1)
    assert idx == HeegnerIndex(level=level, disc=disc, r=r)


def test_special_divisor_index_never_fails_once_the_congruence_holds():
    # r1**2 = D mod 4N forces D = 0 or 1 mod 4, so every valid key is an index
    keys = 0
    for level in range(1, 41):
        four_n = 4 * level
        for r1 in range(-2 * level, 4 * level):
            for scaled in range((-r1 * r1) % four_n or four_n, 300, four_n):
                idx = special_divisor_index(level, Fraction(scaled, four_n), r1)
                assert (idx.level, idx.disc, idx.r) == (level, -scaled, r1 % (2 * level))
                # the index is built unchecked; the checked constructor accepts it
                assert idx == HeegnerIndex(level=level, disc=-scaled, r=r1)
                keys += 1
    assert keys == 17427


def test_special_divisor_congruence_mismatch_is_an_error():
    with pytest.raises(CongruenceError):
        special_divisor_index(1, Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        special_divisor_index(1, 0, 0)


def test_special_divisor_index_takes_only_an_int_level():
    # 2.0 passes every congruence at level 2 and would give float fields
    assert special_divisor_index(2, Fraction(7, 8), 1) == HeegnerIndex(2, -7, 1)
    for level in (2.0, Fraction(2), True):
        with pytest.raises(ValueError, match="level must be a positive integer"):
            special_divisor_index(level, Fraction(7, 8), 1)


def test_bqform_transform_preserves_discriminant():
    f = BQForm(2, 1, 3)
    g = ((1, 4), (1, 5))
    assert transformed(f, g).discriminant() == f.discriminant()


def test_p1_canon_matches_min_over_units():
    for n in range(1, 61):
        for p in range(n):
            for q in range(n):
                if gcd(gcd(p, q), n) != 1:
                    continue
                expected = p1_canon_by_units(p, q, n)
                assert _p1_canon(p, q, n) == expected
                # matrix entries are integers outside [0, n): same point
                assert _p1_canon(p - 2 * n, q + 3 * n, n) == expected


def test_p1_canon_matches_unit_lift_oracle_up_to_level_300():
    # every point of P^1(Z/n), through two representatives that are not its label
    for n in range(1, 301):
        u = next((u for u in range(2, n) if gcd(u, n) == 1), 1)
        for (p, q), _ in coset_reps_by_sweep(n):
            for x, y in ((-p, -q), (u * p, u * q)):
                assert _p1_canon(x - 2 * n, y + 3 * n, n) == p1_canon_by_unit_lifts(x, y, n) == (p, q)


def _check_coset_reps(n, reps):
    assert len(reps) == psi_by_trial_division(n)
    labels = [label for label, _ in reps]
    assert labels == sorted(set(labels))
    for (p, q), ((a, b), (c, d)) in reps:
        assert a * d - b * c == 1
        assert (a - p) % n == 0 and (c - q) % n == 0


def test_coset_reps_labels_are_canonical_and_count_psi():
    for n in range(1, 301):
        reps = coset_reps_by_sweep(n)
        _check_coset_reps(n, reps)
        if n <= 60:
            assert all(p1_canon_by_units(p, q, n) == (p, q) for (p, q), _ in reps)


@pytest.mark.parametrize("n", [9998, 30030])
def test_coset_reps_count_psi_at_large_levels(n):
    # uncached call: keeps 10^5 matrices out of the process-wide cache
    _check_coset_reps(n, coset_reps_by_sweep.__wrapped__(n))


# literal class representatives: a change in which form represents a class,
# not only in the degree, fails here
@pytest.mark.parametrize(
    "level,disc,r,classes",
    [
        (120, -15, 105, [(7440, 345, 4, 1), (14880, 345, 2, 1)]),
        (120, -39, 21, [(480, -219, 25, 1), (600, -219, 20, 1), (48120, 981, 5, 1), (118920, 2181, 10, 1)]),
        (180, -44, 26, [(10620, -10414, 2553, 1), (13500, 6866, 873, 1), (75780, 1826, 11, 1)]),
        (180, -80, 80, [(180, 80, 9, 1), (3780, 1160, 89, 1), (22860, 800, 7, 1), (48060, 1160, 7, 1)]),
        (250, -4, 114, [(3250, 114, 1, Fraction(1, 2))]),
        (250, -16, 228, [(6500, 228, 2, Fraction(1, 2)), (13000, -12772, 3137, 1), (66250, 728, 2, Fraction(1, 2))]),
        (250, -31, 63, [(250, 63, 4, 1), (12250, -11937, 2908, 1), (165250, -164437, 40907, 1)]),
    ],
)
def test_class_representatives_pinned(level, disc, r, classes):
    div = enumerate_heegner_divisor(HeegnerIndex(level, disc, r))
    assert [(f.a, f.b, f.c, w) for f, w in div.classes] == classes


def test_classes_match_coset_scan_oracle_up_to_level_300():
    # a seeded sample of indices per level: the discriminants with a
    # weight-1/2 or weight-1/3 class, and random ones, some sharing a prime with N
    rng = random.Random(20240601)
    discs = [d for d in range(-3, -160, -1) if d % 4 in (0, 1)]
    for n in range(1, 301):
        shared = [d for d in discs if gcd(d, n) > 1]
        sample = [-3, -4, -12, -16] + rng.sample(discs, 3) + rng.sample(shared, min(2, len(shared)))
        for disc in sample:
            rs = heegner_r_values(n, disc)
            if rs:
                idx = HeegnerIndex(n, disc, rng.choice(rs))
                assert enumerate_heegner_divisor(idx) == heegner_divisor_by_coset_scan(idx)


def test_classes_match_coset_scan_oracle_at_level_9998():
    for r in heegner_r_values(9998, -7):
        idx = HeegnerIndex(9998, -7, r)
        assert enumerate_heegner_divisor(idx) == heegner_divisor_by_coset_scan(idx)


def test_labels_match_coset_scan_oracle_at_level_30030():
    # the full scan holds about 30 MB of coset matrices and takes over a
    # second, so two seeded reduced forms are scanned: the shipped classes
    # over each (found by reducing every representative) are exactly the
    # scan's labels, transformed by its matrices; the degree is checked
    # against H(1559) = 51
    reps = coset_reps_by_sweep.__wrapped__(30030)
    div = enumerate_heegner_divisor(HeegnerIndex(30030, -1559, 599))
    for form in random.Random(30030).sample(reduced_forms(1559), 2):
        selected = labels_by_coset_scan(form, 30030, 599, reps)
        assert len(selected) == 1
        expected = sorted((f.a, f.b, f.c) for f in (transformed(form, g) for g in selected.values()))
        shipped = [(f.a, f.b, f.c) for f, _ in div.classes if _sl2_reduce(f.a, f.b, f.c) == (form.a, form.b, form.c)]
        assert shipped == expected
    assert div.degree == hurwitz_class_number(1559) == 51


def test_enumeration_at_level_600_is_fast_cold():
    t0 = time.perf_counter()
    div = enumerate_heegner_divisor(HeegnerIndex(600, -1511, 133))
    elapsed = time.perf_counter() - t0
    assert div.degree == hurwitz_class_number(1511)
    assert elapsed < 0.5


def test_enumeration_is_fast_when_labels_share_a_large_prime_with_the_level():
    # kernel points here have a first coordinate divisible by p = 10000019, so
    # a label search linear in gcd(first coordinate, N) would take seconds
    p = 10000019
    t0 = time.perf_counter()
    div = enumerate_heegner_divisor(HeegnerIndex(5 * p, 1 - 4 * p, 40000075))
    elapsed = time.perf_counter() - t0
    assert div.degree == len(div.classes) == 1800
    assert elapsed < 1.0


def test_enumeration_at_level_30030_is_fast_and_keeps_no_memory():
    # timed under tracemalloc, which only slows the call down; what stays
    # allocated afterwards includes the returned divisor
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        div = enumerate_heegner_divisor(HeegnerIndex(30030, -1559, 599))
        elapsed = time.perf_counter() - t0
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert div.degree == 51
    assert elapsed < 0.1
    assert held < 4 * 2**20


def test_enumeration_refuses_a_level_above_the_factoring_bound():
    # the level is a product of two 13-digit primes, above large_level_bound(),
    # so factor() leaves it unsplit; enumeration refuses with a typed error
    # rather than an assert (which `python -O` would skip)
    from cyclecert.arith import large_level_bound
    from cyclecert.modcurves import LevelBoundError

    n = 1000000000063 * 1000000000091
    assert n > large_level_bound()
    idx = HeegnerIndex(n, -7, 247096897505900437541891)
    start = time.perf_counter()
    with pytest.raises(LevelBoundError):
        enumerate_heegner_divisor(idx)
    assert time.perf_counter() - start < 0.1


def test_enumeration_factors_the_level_once(monkeypatch):
    from cyclecert import arith

    calls = []
    real = arith.factor

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "factor", counted)
    for idx in (HeegnerIndex(37, -7, 17), HeegnerIndex(30030, -1559, 599), HeegnerIndex(1, -3, 1)):
        del calls[:]
        enumerate_heegner_divisor(idx)
        assert calls == [idx.level]
