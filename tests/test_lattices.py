from fractions import Fraction

import pytest

from cyclecert.lattices import (
    DiscElement,
    GramLattice,
    full_matrix_lattice,
    trace_zero_lattice,
)
from oracles import det_by_expansion, exact_signature, matrix_rep, q_mod1, smith_normal_form


def test_trace_zero_gram_pinned():
    lat = trace_zero_lattice(1)
    assert lat.gram == ((-2, 0, 0), (0, 0, 1), (0, 1, 0))
    assert lat.rank == 3
    assert lat.signature == (1, 2)


def test_diagonal_entry_is_twice_the_form_value():
    # Q(diag(1,-1)) = N * det = -N, so (x, x) = -2N
    for n in (1, 2, 7):
        assert trace_zero_lattice(n).gram[0][0] == -2 * n


def test_gram_symmetric():
    for n in range(1, 20):
        for lat in (trace_zero_lattice(n), full_matrix_lattice(n)):
            g = lat.gram
            assert all(g[i][j] == g[j][i] for i in range(lat.rank) for j in range(lat.rank))


def test_full_lattice_block_structure():
    lat = full_matrix_lattice(5)
    assert lat.rank == 4
    assert lat.gram[3] == (0, 0, 0, 10)
    assert all(lat.gram[i][3] == 0 for i in range(3))


@pytest.mark.parametrize("n,order", [(1, 2), (1, 2), (37, 74)])
def test_trace_zero_disc_group_order_examples(n, order):
    assert trace_zero_lattice(n).disc_group_order() == order


@pytest.mark.parametrize("n,order", [(1, 4), (3, 36)])
def test_full_disc_group_order_examples(n, order):
    assert full_matrix_lattice(n).disc_group_order() == order


def test_disc_group_orders_by_smith_normal_form():
    # the closed-form orders against the reference determinant and Smith normal form
    for n in range(1, 51):
        for lat, order in ((trace_zero_lattice(n), 2 * n), (full_matrix_lattice(n), 4 * n * n)):
            prod = 1
            for d in smith_normal_form(lat.gram):
                prod *= d
            assert prod == abs(det_by_expansion(lat.gram)) == order == lat.disc_group_order()


def test_disc_group_invariants_cyclic_orders():
    # the invariants are the elementary divisors above 1
    assert trace_zero_lattice(6).elementary_divisors() == (1, 1, 12)
    assert full_matrix_lattice(6).elementary_divisors() == (1, 1, 12, 12)


def test_snf_divisibility_chain():
    # the closed-form elementary divisors against the reference Smith normal form
    for n in range(1, 51):
        for lat in (trace_zero_lattice(n), full_matrix_lattice(n)):
            divs = lat.elementary_divisors()
            assert divs == smith_normal_form(lat.gram)
            for a, b in zip(divs, divs[1:]):
                assert b % a == 0


def test_gram_lattice_is_determined_by_rank_and_level():
    for n in range(1, 51):
        assert GramLattice(3, n) == trace_zero_lattice(n)
        assert GramLattice(4, n) == full_matrix_lattice(n)
        for rank in (0, 1, 2, 5):
            with pytest.raises(ValueError, match="rank must be 3 or 4"):
                GramLattice(rank, n)


def test_signatures_match_exact_diagonalization():
    for n in (1, 2, 3, 10, 25):
        assert exact_signature(trace_zero_lattice(n).gram) == (1, 2)
        assert exact_signature(full_matrix_lattice(n).gram) == (2, 2)


def test_rejects_level_zero():
    with pytest.raises(ValueError):
        trace_zero_lattice(0)
    with pytest.raises(ValueError):
        full_matrix_lattice(0)
    with pytest.raises(ValueError):
        DiscElement(0, 0, 0)


def test_q_values_examples():
    assert q_mod1(DiscElement(37, 0, 0), "trace0") == 0
    assert q_mod1(DiscElement(1, 1, 0), "trace0") == Fraction(3, 4)
    assert q_mod1(DiscElement(1, 0, 1), "scalar") == Fraction(1, 4)


def test_q_side_validation():
    with pytest.raises(ValueError):
        q_mod1(DiscElement(1, 0, 0), "bogus")


def test_q_additive_across_the_splitting():
    for n in range(1, 51):
        for r1 in range(2 * n):
            for r2 in range(2 * n):
                mu = DiscElement(n, r1, r2)
                total = q_mod1(mu, "full")
                split = (q_mod1(mu, "trace0") + q_mod1(mu, "scalar")) % 1
                assert total == split


def test_q_even_under_negation():
    for n in range(1, 31):
        for r1 in range(2 * n):
            for r2 in range(2 * n):
                mu = DiscElement(n, r1, r2)
                neg = DiscElement(n, -r1, -r2)
                for side in ("trace0", "scalar", "full"):
                    assert q_mod1(mu, side) == q_mod1(neg, side)


def test_disc_element_normalizes_residues():
    mu = DiscElement(3, 7, -1)
    assert (mu.r1, mu.r2) == (1, 5)


def test_matrix_rep_is_the_splitting_sum():
    # diag((r1+r2)/2N, (r2-r1)/2N) = diag(r1, -r1)/2N + (r2/2N) * I
    for n in (1, 2, 5):
        for r1 in range(2 * n):
            for r2 in range(2 * n):
                rep = matrix_rep(DiscElement(n, r1, r2))
                top = rep[0][0] * 2 * n
                bot = rep[1][1] * 2 * n
                assert top + bot == 2 * r2
                assert top - bot == 2 * r1


def test_matrix_reps_unique_in_the_quotient():
    # two representatives agree in the discriminant group exactly when the
    # entry shifts are integers congruent mod 2 (the diagonal part of the
    # lattice has matching parities); that happens only for equal pairs
    for n in (1, 2, 3):
        elems = [
            DiscElement(n, r1, r2) for r1 in range(2 * n) for r2 in range(2 * n)
        ]
        for x in elems:
            for y in elems:
                rx, ry = matrix_rep(x), matrix_rep(y)
                du = rx[0][0] - ry[0][0]
                dv = rx[1][1] - ry[1][1]
                same = (
                    du.denominator == 1
                    and dv.denominator == 1
                    and (du.numerator - dv.numerator) % 2 == 0
                )
                assert same == ((x.r1, x.r2) == (y.r1, y.r2))
