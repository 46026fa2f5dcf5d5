import time
from fractions import Fraction
from math import isqrt

import pytest

import cyclecert.pullback as pullback_mod
from cyclecert.heegner import CongruenceError, hurwitz_class_number
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
from oracles import inverse_theta_coeffs, pullback_by_splitting, q_mod1, round_trip_by_divisor_class


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
    assert calls == [(1, 300, 0), (1, Fraction(300), 0)]


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
        yield PullbackDecomposition(dec.level, dec.target, tuple(changed), dec.residual_cusp_ambiguous)


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
        return PullbackDecomposition(dec.level, target, dec.terms, dec.residual_cusp_ambiguous)

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
    mixed = PullbackDecomposition(
        dec.level, dec.target, dec.terms + ((gen(1, 1, 0), Fraction(1)),), dec.residual_cusp_ambiguous
    )
    for round_trip in (verify_decomposition, round_trip_by_divisor_class):
        with pytest.raises(ValueError, match="different levels"):
            round_trip(mixed)


def test_round_trip_subtracts_a_target_the_terms_miss():
    dec = PullbackDecomposition(level=3, target=(Fraction(2, 3), 2), terms=())
    assert verify_decomposition(dec) == round_trip_by_divisor_class(dec) == {(Fraction(2, 3), 2): -1}
    for round_trip in (verify_decomposition, round_trip_by_divisor_class):
        with pytest.raises(ValueError, match="positive"):
            round_trip(PullbackDecomposition(0, dec.target, dec.terms, dec.residual_cusp_ambiguous))


def test_ladder_rungs_equal_public_generators():
    for level, scaled, r1 in _targets(10, 400):
        for g, _ in decompose_heegner(level, Fraction(scaled, 4 * level), r1).terms:
            public = AmbientGenerator(g.m, g.mu)
            assert g == public and hash(g) == hash(public) and repr(g) == repr(public)
            assert type(g.m) is Fraction and g._four_nm == public._four_nm == g.m * 4 * level


def test_ladder_rung_failing_the_congruence_raises():
    mu = DiscElement(3, 1, 2)
    # 4N*m = r2**2 - r1**2 = 3 mod 12
    assert AmbientGenerator._rung(15, mu) == AmbientGenerator(Fraction(15, 12), mu)
    with pytest.raises(ValueError) as public:
        AmbientGenerator(Fraction(16, 12), mu)
    with pytest.raises(ValueError) as rung:
        AmbientGenerator._rung(16, mu)
    assert str(rung.value) == str(public.value)


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
