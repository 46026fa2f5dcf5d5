from fractions import Fraction

import pytest

from cyclecert.repcount import scalar_rep_count


@pytest.mark.parametrize(
    "level,value,residue,expected",
    [
        (1, 0, 0, 1),
        (1, 1, 0, 2),
        (1, Fraction(1, 4), 1, 2),
        (5, 3, 0, 0),
    ],
)
def test_pinned_examples(level, value, residue, expected):
    assert scalar_rep_count(level, value, residue) == expected


def test_rejects_negative_value():
    with pytest.raises(ValueError):
        scalar_rep_count(1, -1, 0)


@pytest.mark.parametrize("residue", [0.0, True, "0"], ids=repr)
def test_rejects_a_residue_that_is_not_an_int(residue):
    # 0.0 and True compare like ints, so arithmetic on them alone lets them through
    with pytest.raises(ValueError, match="^residue must be an integer$"):
        scalar_rep_count(1, 1, residue)


def test_rejects_bad_denominator():
    with pytest.raises(ValueError):
        scalar_rep_count(1, Fraction(1, 3), 0)
    with pytest.raises(ValueError):
        scalar_rep_count(2, Fraction(1, 16), 0)


def test_symmetry_support_and_parity_exhaustive():
    # one sweep over N <= 20, 4Nm <= 10000 checking:
    # - negation symmetry a_P(m, r) = a_P(m, 2N - r)
    # - support: a positive count forces 4Nm = r^2 mod 4N
    # - counts lie in {0, 1, 2}; cosets fixed by negation (r = 0 or N) give
    #   even counts for m > 0, and count 1 at m = 0 happens only at r = 0.
    #   A count of 1 with m > 0 does occur off the fixed cosets, where only
    #   one of the two square roots lands in the coset.
    odd_count_seen = False
    for level in range(1, 21):
        two_n = 2 * level
        for scaled in range(0, 10001):
            value = Fraction(scaled, 4 * level)
            counts = [scalar_rep_count(level, value, r) for r in range(two_n)]
            for r, c in enumerate(counts):
                assert c in (0, 1, 2)
                assert c == counts[(-r) % two_n]
                if c > 0:
                    assert (scaled - r * r) % (4 * level) == 0
                if scaled == 0:
                    assert (c == 1) == (r == 0)
                elif (2 * r) % two_n == 0:
                    assert c in (0, 2)
                elif c == 1:
                    odd_count_seen = True
    assert odd_count_seen


def test_count_one_off_fixed_coset_witness():
    # four vectors would need both square roots in the coset; here only
    # 1 + 4k = 1 solves (1 + 4k)**2 = 1, so the count is exactly 1
    assert scalar_rep_count(2, Fraction(1, 8), 1) == 1
