import random
import time
from fractions import Fraction
from math import isqrt

import pytest

import cyclecert.pullback as pullback_mod
from cyclecert.heegner import CongruenceError, eichler_relation_sides, hurwitz_class_number, special_divisor_index
from cyclecert.lattices import DiscElement
from cyclecert.modcurves import cover_degree_over_x0
from cyclecert.pullback import (
    AmbientGenerator,
    DivisorClass,
    PullbackDecomposition,
    apply_decomposition,
    chow_heegner_divisor,
    decompose_heegner,
    pullback_divisor,
    verify_decomposition,
)
from oracles import (
    add_pullback_every_s,
    inverse_theta_coeffs,
    pullback_by_splitting,
    q_mod1,
    round_trip_by_divisor_class,
    special_divisor_index_by_fractions,
)


def gen(level, m, r1, r2=0):
    return AmbientGenerator(m=Fraction(m), mu=DiscElement(level, r1, r2))


def test_pullback_of_base_generator_is_adjunction():
    d = pullback_divisor(gen(1, 0, 0, 0))
    assert d.omega_coeff == -2
    assert not d.heeg_coeffs
    assert not d.cusp_ambiguous


def test_pullback_of_nonzero_mu_at_zero_norm_vanishes():
    d = pullback_divisor(gen(1, 0, 1, 1))
    assert d.is_zero()
    assert not d.cusp_ambiguous


def test_pullback_example_m_one():
    d = pullback_divisor(gen(1, 1, 0, 0))
    assert d.heeg_coeffs == {(Fraction(1), 0): Fraction(1)}
    assert d.omega_coeff == -2
    assert d.cusp_ambiguous


def test_pullback_example_quarter_norm():
    d = pullback_divisor(gen(1, Fraction(1, 4), 0, 1))
    assert not d.heeg_coeffs
    assert d.omega_coeff == -2
    assert d.cusp_ambiguous


def test_pullback_general_scalar_residue():
    # both square-root cosets contribute separate splittings
    d = pullback_divisor(gen(3, 12, 1, 1))
    keys = sorted(d.heeg_coeffs)
    assert all(r1 == 1 for (_, r1) in keys)
    assert len(keys) == 4


def test_pullback_validates_congruence():
    with pytest.raises(ValueError):
        AmbientGenerator(m=Fraction(1, 3), mu=DiscElement(1, 0, 1))


def test_decompose_example_level_one():
    dec = decompose_heegner(1, 1, 0)
    coeffs = {(g.m, g.mu.r1, g.mu.r2): c for g, c in dec.terms}
    assert coeffs == {
        (Fraction(1), 0, 0): Fraction(1),
        (Fraction(0), 0, 0): Fraction(-1),
    }
    assert dec.residual_cusp_ambiguous


def test_decompose_example_three_quarters():
    dec = decompose_heegner(1, Fraction(3, 4), 1)
    coeffs = {(g.m, g.mu.r1, g.mu.r2): c for g, c in dec.terms}
    assert coeffs == {(Fraction(3, 4), 1, 0): Fraction(1)}


def test_decompose_leading_coefficient_is_one():
    for level, m0, r1 in [(1, 5, 0), (2, Fraction(7, 8), 1), (3, Fraction(23, 12), 1)]:
        dec = decompose_heegner(level, m0, r1)
        assert dec.coefficient(gen(level, m0, r1)) == 1


def test_decompose_generators_stay_below_target():
    dec = decompose_heegner(2, 6, 0)
    for g, _ in dec.terms:
        assert g.m <= 6
        assert g.mu.r2 == 0


def test_decompose_rejects_invalid_keys():
    with pytest.raises(ValueError):
        decompose_heegner(1, Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        decompose_heegner(1, -1, 0)


def test_round_trip_small_levels():
    for level in (1, 2):
        for r1 in range(2 * level):
            for scaled in range(1, 81):
                if (scaled + r1 * r1) % (4 * level) != 0:
                    continue
                dec = decompose_heegner(level, Fraction(scaled, 4 * level), r1)
                assert verify_decomposition(dec) == {}


def test_round_trip_cancels_omega_exactly():
    for level, m0, r1 in [(1, 4, 0), (2, 8, 0), (3, 3, 0)]:
        dec = decompose_heegner(level, m0, r1)
        total = apply_decomposition(dec)
        assert total.omega_coeff == 0


def test_pullback_linearity_on_heeg_coefficients():
    g1, g2 = gen(2, 1, 0, 0), gen(2, 2, 0, 0)
    a, b = Fraction(3, 2), Fraction(-5)
    lhs = pullback_divisor(g1).scaled(a) + pullback_divisor(g2).scaled(b)
    rhs = {}
    for g, c in ((g1, a), (g2, b)):
        for k, v in pullback_divisor(g).heeg_coeffs.items():
            rhs[k] = rhs.get(k, Fraction(0)) + c * v
    assert lhs.heeg_coeffs == {k: v for k, v in rhs.items() if v != 0}


def test_pullback_support_bound():
    # at most 1 + floor(sqrt(m/N)) splittings for vanishing scalar residue,
    # at most twice that in general (two square-root cosets)
    for level in (1, 2, 3):
        for r2 in range(2 * level):
            for scaled in range(1, 200):
                if (scaled - r2 * r2) % (4 * level) != 0:
                    continue
                m = Fraction(scaled, 4 * level)
                d = pullback_divisor(gen(level, m, 0, r2))
                bound = 1 + isqrt(scaled // (4 * level * level))
                terms = len(d.heeg_coeffs) + (1 if d.omega_coeff != 0 else 0)
                if r2 == 0:
                    assert terms <= bound
                else:
                    assert terms <= 2 * bound


def test_divisor_class_rejects_bad_keys():
    with pytest.raises(ValueError):
        DivisorClass(level=1, heeg_coeffs={(Fraction(1, 2), 0): Fraction(1)})
    with pytest.raises(CongruenceError):
        DivisorClass(level=3, heeg_coeffs={(Fraction(1, 3), 1): Fraction(2)})
    with pytest.raises(ValueError):
        DivisorClass(level=2, heeg_coeffs={(Fraction(0), 0): Fraction(1)})
    ok = DivisorClass(level=2, heeg_coeffs={(Fraction(7, 8), 5): 3})
    assert ok.heeg_coeffs == {(Fraction(7, 8), 1): Fraction(3)}
    with pytest.raises(ValueError):
        ok + DivisorClass(level=1)


def test_sums_and_multiples_do_not_revalidate(monkeypatch):
    a = pullback_divisor(gen(2, 3, 0, 0))
    b = pullback_divisor(gen(2, 2, 0, 0))

    def refuse(*args):
        raise AssertionError("operands were validated when built")

    monkeypatch.setattr(pullback_mod, "special_divisor_index", refuse)
    total = a.scaled(Fraction(1, 2)) + b
    assert total.heeg_coeffs == {
        (Fraction(3), 0): Fraction(1, 2),
        (Fraction(2), 0): Fraction(1),
        (Fraction(1), 0): Fraction(1),
    }
    assert total.omega_coeff == -2
    assert a.scaled(0).is_zero()


def test_round_trip_validates_only_the_surviving_key(monkeypatch):
    calls = []
    validate = pullback_mod.special_divisor_index

    def counted(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(pullback_mod, "special_divisor_index", counted)
    dec = decompose_heegner(1, 300, 0)
    assert verify_decomposition(dec) == {}
    assert apply_decomposition(dec).omega_coeff == 0
    assert chow_heegner_divisor(1, dec).heeg_coeffs == {(Fraction(300), 0): 1}
    # the decomposition keeps the index its target was validated to; the round reads it
    assert calls == [(1, 300, 0)]


def test_a_hand_built_decomposition_checks_its_target_when_built():
    dec = decompose_heegner(3, Fraction(2, 3), 2)
    # r1 = -4 is r1 = 2 mod 2N: the target is kept as given, its index reduced
    same = PullbackDecomposition(3, (Fraction(2, 3), -4), dec.terms)
    assert same.target == (Fraction(2, 3), -4) and same._index == dec._index
    for target, error in (
        ((Fraction(1, 3), 2), CongruenceError),
        ((Fraction(2, 3), 1), CongruenceError),
        ((Fraction(-1, 3), 2), ValueError),
        ((Fraction(0), 0), ValueError),
    ):
        with pytest.raises(error):
            PullbackDecomposition(3, target, dec.terms)
    with pytest.raises(ValueError, match="level must be a positive integer"):
        PullbackDecomposition(3.0, (Fraction(2, 3), 2), dec.terms)


@pytest.mark.parametrize("level", [1, 2, 3, 5, 6, 7, 11, 30])
def test_decompose_ladder_is_inverse_theta(level):
    four_n = 4 * level
    for r1 in range(2 * level):
        first = (-r1 * r1) % four_n or four_n
        for scaled in (first, first + four_n * 40):
            m0 = Fraction(scaled, four_n)
            expected = inverse_theta_coeffs(level, -(-scaled // four_n))
            ladder = [(g.m, g.mu.r1, g.mu.r2, c) for g, c in decompose_heegner(level, m0, r1).terms if g.m != 0]
            assert ladder == [(m0 - j, r1, 0, c) for j, c in enumerate(expected) if c]


def test_long_ladder_round_trip():
    # 2000 rungs; summing them once, with one validation, keeps this far
    # below the budget
    start = time.monotonic()
    dec = decompose_heegner(1, 2000, 0)
    assert len(dec.terms) == 2001
    assert verify_decomposition(dec) == {}
    assert apply_decomposition(dec).omega_coeff == 0
    assert time.monotonic() - start < 2.0


def test_chow_heegner_divisor_rejects_a_decomposition_at_another_level():
    dec = decompose_heegner(1, 1, 0)
    with pytest.raises(ValueError, match="differs from the decomposition's level 1"):
        chow_heegner_divisor(2, dec)
    assert chow_heegner_divisor(1, dec).cusp_coeff == -12 * hurwitz_class_number(4)


def test_divisor_class_drops_zero_coefficients():
    d = DivisorClass(level=1, heeg_coeffs={(Fraction(1), 0): Fraction(0)})
    assert d.heeg_coeffs == {}


def test_chow_heegner_degree_zero_contract():
    dec = decompose_heegner(1, 1, 0)
    out = chow_heegner_divisor(1, dec)
    # covering degree 6 and paired degree 2*H(4) = 1 give cusp weight -6
    assert out.heeg_coeffs == {(Fraction(1), 0): Fraction(1)}
    assert out.cusp_coeff == -2 * 6 * hurwitz_class_number(4)
    assert not out.cusp_ambiguous
    assert out.omega_coeff == 0
    # level 97 lies above the old enumeration guard of the cover profile
    out = chow_heegner_divisor(97, decompose_heegner(97, 1, 0))
    assert out.cusp_coeff == -2 * cover_degree_over_x0(97) * hurwitz_class_number(4 * 97)
    assert not out.cusp_ambiguous


def _targets(max_level, max_scaled):
    """Every valid (N, 4N*m0, r1) with N <= max_level and 0 < 4N*m0 <= max_scaled."""
    for level in range(1, max_level + 1):
        four_n = 4 * level
        for r1 in range(2 * level):
            first = (-r1 * r1) % four_n or four_n
            for scaled in range(first, max_scaled + 1, four_n):
                yield level, scaled, r1


def _tampered(dec):
    """The decomposition with one coefficient bumped, one rung dropped, one
    coefficient made non-integral, and an extra Z*(0, 0) term."""
    terms = list(dec.terms)
    i = len(terms) // 2
    gen_i, c_i = terms[i]
    zero = AmbientGenerator(m=Fraction(0), mu=DiscElement(dec.level, 0, 0))
    for changed in (
        terms[:i] + [(gen_i, c_i + 1)] + terms[i + 1 :],
        terms[:i] + terms[i + 1 :],
        terms[:i] + [(gen_i, c_i + Fraction(1, 3))] + terms[i + 1 :],
        terms + [(zero, Fraction(1))],
    ):
        yield PullbackDecomposition(dec.level, dec.target, tuple(changed))


def _typed(residual):
    return sorted((type(m), m, r, type(c), c) for (m, r), c in residual.items())


def test_round_trip_matches_divisor_class_oracle():
    seen_nonzero = 0
    for level, scaled, r1 in _targets(10, 400):
        dec = decompose_heegner(level, Fraction(scaled, 4 * level), r1)
        for case in (dec, *_tampered(dec)):
            got = verify_decomposition(case)
            want = round_trip_by_divisor_class(case)
            assert _typed(got) == _typed(want), (level, scaled, r1, case.terms)
            assert all(type(m) is Fraction and 0 <= r < 2 * level for m, r in got)
            seen_nonzero += bool(got)
    assert seen_nonzero > 1000


def test_round_trip_validates_and_reduces_the_target():
    dec = decompose_heegner(1, Fraction(3, 4), 1)

    def with_target(target):
        return PullbackDecomposition(dec.level, target, dec.terms)

    # r1 = 3 is r1 = 1 mod 2N, so the target is the one the terms realize
    assert verify_decomposition(with_target((Fraction(3, 4), 3))) == {}
    assert verify_decomposition(with_target((Fraction(3, 4), -1))) == {}
    for bad in ((Fraction(1, 2), 1), (Fraction(3, 4), 0), (Fraction(1, 3), 1)):
        with pytest.raises(CongruenceError):
            verify_decomposition(with_target(bad))
    with pytest.raises(ValueError, match="positive"):
        verify_decomposition(with_target((Fraction(-1, 4), 1)))


def test_round_trip_rejects_mixed_levels_like_the_oracle():
    dec = decompose_heegner(2, 1, 0)
    mixed = PullbackDecomposition(dec.level, dec.target, dec.terms + ((gen(1, 1, 0), Fraction(1)),))
    for round_trip in (verify_decomposition, round_trip_by_divisor_class):
        with pytest.raises(ValueError, match="different levels"):
            round_trip(mixed)


def test_round_trip_subtracts_a_target_the_terms_miss():
    dec = PullbackDecomposition(level=3, target=(Fraction(2, 3), 2), terms=())
    assert verify_decomposition(dec) == round_trip_by_divisor_class(dec) == {(Fraction(2, 3), 2): -1}
    for round_trip in (verify_decomposition, round_trip_by_divisor_class):
        with pytest.raises(ValueError, match="positive"):
            round_trip(PullbackDecomposition(0, dec.target, dec.terms))


def test_ladder_rungs_equal_public_generators():
    for level, scaled, r1 in _targets(10, 400):
        for g, _ in decompose_heegner(level, Fraction(scaled, 4 * level), r1).terms:
            public = AmbientGenerator(g.m, g.mu)
            assert g == public and hash(g) == hash(public) and repr(g) == repr(public)
            assert type(g.m) is Fraction and g._four_nm == public._four_nm == g.m * 4 * level


def test_generator_congruence_matches_q_mod1():
    # the constructors check m = q(mu) mod 1 as an integer congruence on 4N*m
    for level in range(1, 5):
        for r1 in range(2 * level):
            for r2 in range(2 * level):
                mu = DiscElement(level, r1, r2)
                for m in (Fraction(a, 12 * level) for a in range(24 * level)):
                    valid = (m - q_mod1(mu, "full")) % 1 == 0
                    try:
                        g = AmbientGenerator(m, mu)
                    except ValueError:
                        assert not valid, (m, mu)
                    else:
                        assert valid and g._four_nm == m * 4 * level, (m, mu)


def test_pullback_matches_splitting_oracle():
    for level in range(1, 7):
        four_n = 4 * level
        for r1 in range(2 * level):
            for r2 in range(2 * level):
                first = (r2 * r2 - r1 * r1) % four_n
                for four_nm in range(first, 301, four_n):
                    d = pullback_divisor(AmbientGenerator(Fraction(four_nm, four_n), DiscElement(level, r1, r2)))
                    heeg, omega = pullback_by_splitting(level, four_nm, r1, r2)
                    assert d.heeg_coeffs == {(Fraction(k, four_n), r): Fraction(c) for (k, r), c in heeg.items()}
                    assert d.omega_coeff == omega


def test_pullback_keys_are_validated_once_at_the_boundary(monkeypatch):
    # Z*(200, (0, 0)) at level 1 reaches 15 keys, all valid by construction
    d = pullback_divisor(gen(1, 200, 0, 0))
    assert len(d.heeg_coeffs) == 15
    assert d == DivisorClass(1, d.heeg_coeffs, d.omega_coeff, d.cusp_coeff, d.cusp_ambiguous)
    dec = decompose_heegner(1, 200, 0)
    calls = []
    validate = pullback_mod.special_divisor_index

    def counted(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(pullback_mod, "special_divisor_index", counted)
    assert pullback_divisor(gen(1, 200, 0, 0)) == d
    assert calls == []
    # the decomposition's target was checked when it was built, so applying it checks nothing
    assert apply_decomposition(dec).heeg_coeffs == {(Fraction(200), 0): 1}
    assert calls == []


def test_level_one_pullbacks_give_the_hurwitz_kronecker_relation():
    """At level 1 the pullbacks of Z*(m, mu), mu = (0, 0) and (1, 1), have total degree sum_(d | m) max(d, m/d).

    The two mu are the elements of the level-1 discriminant group with
    q(mu) = 0 mod 1.  Their pullbacks split m as m0 + s**2/4, even s at (0, 0)
    and odd s at (1, 1), so between them every s with s**2 < 4m contributes
    Heeg(m0, r1), m0 = (4m - s**2)/4, and the square 4m = s**2 contributes
    -Omega (the convention Z(0, 0) = -Omega).  Give Heeg(m0, r1) its degree
    H(4*m0) and Omega the degree 1/12 of the Hodge class on X(1), so that
    -Omega stands for H(0) = -1/12.  Then the degree is
    sum_(s**2 <= 4m) H(4m - s**2), which by the Hurwitz-Kronecker class
    number relation equals sum_(d | m) max(d, m/d); the right side is
    computed from the divisors of m alone.
    """
    for m in range(1, 301):
        total = Fraction(0)
        for r in (0, 1):
            d = pullback_divisor(gen(1, m, r, r))
            total += sum(c * hurwitz_class_number(int(4 * m0)) for (m0, _), c in d.heeg_coeffs.items())
            total += d.omega_coeff / 12
        assert total == eichler_relation_sides(m)[1]


def _every_s_class(gen):
    """Heegner part and Omega part of pullback_divisor(gen) by the every-s reference."""
    heeg = {}
    omega = add_pullback_every_s(gen, 1, heeg)
    four_n = 4 * gen.level
    return {(Fraction(k, four_n), r1): Fraction(c) for (k, r1), c in heeg.items() if c}, omega


def test_pullback_visits_each_splitting_once_like_the_every_s_reference():
    # every generator with N <= 12 and 4N*m < 160: values, first-seen key order and Omega part
    seen = {"r2 not 0 or N": 0, "s = 0": 0, "s**2 = 4N*m": 0}
    for level in range(1, 13):
        four_n, two_n = 4 * level, 2 * level
        for r1 in range(two_n):
            for r2 in range(two_n):
                for four_nm in range((r2 * r2 - r1 * r1) % four_n, 160, four_n):
                    gen = AmbientGenerator(Fraction(four_nm, four_n), DiscElement(level, r1, r2))
                    got = pullback_divisor(gen)
                    heeg, omega = _every_s_class(gen)
                    assert list(got.heeg_coeffs.items()) == list(heeg.items()), (level, four_nm, r1, r2)
                    assert got.omega_coeff == omega and type(got.omega_coeff) is Fraction
                    seen["r2 not 0 or N"] += r2 not in (0, level) and four_nm > 0
                    seen["s = 0"] += r2 == 0 and four_nm > 0
                    root = isqrt(four_nm)
                    seen["s**2 = 4N*m"] += four_nm > 0 and root * root == four_nm and (root - r2) % two_n == 0
    assert all(seen.values()), seen


def _random_decomposition(rng, level):
    """A decomposition whose terms mix r1 and r2 values and carry int, Fraction and zero coefficients."""
    four_n, two_n = 4 * level, 2 * level
    r1 = rng.randrange(two_n)
    target = (Fraction((-r1 * r1) % four_n + four_n * rng.randrange(1, 6), four_n), r1 + two_n * rng.randrange(-1, 2))
    terms = list(decompose_heegner(level, *target).terms) if rng.random() < 0.5 else []
    for _ in range(rng.randrange(1, 12)):
        g1, g2 = rng.randrange(two_n), rng.randrange(two_n)
        four_nm = (g2 * g2 - g1 * g1) % four_n + four_n * rng.randrange(4)
        coeff = rng.choice([0, 1, -2, 3, Fraction(1, 2), Fraction(-5, 3)])
        terms.append((AmbientGenerator(Fraction(four_nm, four_n), DiscElement(level, g1, g2)), coeff))
    rng.shuffle(terms)
    return PullbackDecomposition(level, target, tuple(terms))


def _every_s_sum(decomp):
    heeg, omega = {}, Fraction(0)
    for gen, coeff in decomp.terms:
        omega += add_pullback_every_s(gen, Fraction(coeff), heeg)
    return heeg, omega


def test_apply_and_verify_match_the_every_s_reference_on_mixed_decompositions():
    rng = random.Random(22)
    residuals = 0
    for trial in range(300):
        level = rng.randrange(1, 9)
        four_n = 4 * level
        dec = _random_decomposition(rng, level)
        heeg, omega = _every_s_sum(dec)
        want = {(Fraction(k, four_n), r1): Fraction(c) for (k, r1), c in heeg.items() if c}
        got = apply_decomposition(dec)
        assert got.heeg_coeffs == want and got.omega_coeff == omega, trial
        assert got.cusp_ambiguous == any(g.m != 0 for g, _ in dec.terms)
        # within each r1 the keys come in the reference's first-seen order
        for r1 in range(2 * level):
            assert [k for k in got.heeg_coeffs if k[1] == r1] == [k for k in want if k[1] == r1]
        idx = special_divisor_index_by_fractions(level, *dec.target)
        target = (-idx.disc, idx.r)
        heeg[target] = heeg.get(target, 0) - 1
        residual = verify_decomposition(dec)
        assert residual == {(Fraction(k, four_n), r1): Fraction(c) for (k, r1), c in heeg.items() if c}, trial
        assert all(type(m) is Fraction and type(c) is Fraction for (m, _), c in residual.items())
        residuals += bool(residual)
    assert residuals > 200


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_special_divisor_index_matches_the_fraction_route():
    m0s = [0, -1, -3, 1, 2, 7, 12]
    m0s += [Fraction(k, d) for d in (1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 36, 48) for k in range(-2, 49, 5)]
    m0s += [Fraction(text) for text in ("3/4", "-1/2", "0", "7", "23/12", "5/48", "0.75")]
    checked = {"ok": 0, "CongruenceError": 0, "ValueError": 0}
    for level in range(1, 13):
        for r1 in range(-1, 2 * level + 2):
            for m0 in m0s:
                got = _outcome(special_divisor_index, level, m0, r1)
                want = _outcome(special_divisor_index_by_fractions, level, m0, r1)
                assert got == want and type(got) is type(want), (level, m0, r1)
                checked["ok" if not isinstance(got, tuple) else got[0].__name__] += 1
    assert _outcome(special_divisor_index, 0, 1, 0) == _outcome(special_divisor_index_by_fractions, 0, 1, 0)
    # what Fraction() would coerce is refused by the rational rule, before the congruence
    refused = (ValueError, "a rational value must be an int or a Fraction")
    for m0 in (True, "3/4", "-1/2", "0", "7", "23/12", "5/48", "0.75", 0.75):
        assert _outcome(special_divisor_index, 1, m0, 1) == refused, m0
    assert all(count > 100 for count in checked.values()), checked
