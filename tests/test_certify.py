import pytest

from cyclecert.certify import (
    CLAUSE_A1,
    CLAUSE_A2,
    CLAUSE_ANALYTIC,
    CLAUSE_B,
    CLAUSE_NONE,
    VERDICT_PROVEN,
    VERDICT_UNKNOWN,
    certify,
    explain,
    large_level_bound,
)
from cyclecert.modcurves import cover_profile
from cyclecert.newforms import NewformClient, TransientFetchError

PINNED_BOUND = 48957501300891817233600


def test_bound_constant_pinned():
    assert large_level_bound() == PINNED_BOUND


def test_bound_prime_product_structure():
    b = large_level_bound()
    assert b % (2**6 * 3**4 * 5**2 * 7**2) == 0
    for p in (11, 13, 17, 19, 23, 29, 31, 41, 47, 59, 71):
        assert b % p == 0
        assert b % (p * p) != 0
    for p in (37, 43, 53, 61, 67):
        assert b % p != 0
    assert b > 2**6 * 3**4


@pytest.mark.parametrize(
    "n,clause,witness_prime",
    [
        (74, CLAUSE_A1, 37),
        (37, CLAUSE_A1, 37),
        (146, CLAUSE_A1, 73),
        (121, CLAUSE_A2, 11),
        (11**2 * 6, CLAUSE_A2, 11),
    ],
)
def test_arithmetic_clauses(n, clause, witness_prime):
    cert = certify(n)
    assert cert.verdict == VERDICT_PROVEN
    assert cert.clause == clause
    assert cert.witnesses[0]["prime"] == witness_prime


def test_clause_order_prefers_a1():
    cert = certify(37 * 121)
    assert cert.clause == CLAUSE_A1
    fired = {w["clause"] for w in cert.witnesses}
    assert CLAUSE_A2 in fired


def test_unknown_levels():
    for n in (1, 2, 6, 35):
        cert = certify(n)
        assert cert.verdict == VERDICT_UNKNOWN
        assert cert.clause == CLAUSE_NONE
        assert cert.witnesses == ()
        assert "no triviality" in cert.justification


def test_composite_beyond_miller_rabin_range_is_not_named_prime():
    # the least strong pseudoprime to the 13 Miller-Rabin bases
    psi13 = 1287836182261 * 2575672364521
    cert = certify(psi13)
    assert cert.witnesses == ({"clause": CLAUSE_B, "bound": str(PINNED_BOUND)},)
    assert "factorization incomplete" in cert.justification


def test_bound_clause_boundary_exactness():
    at_bound = certify(PINNED_BOUND)
    assert at_bound.clause != CLAUSE_B
    assert at_bound.verdict == VERDICT_UNKNOWN
    above = certify(PINNED_BOUND + 1)
    assert above.verdict == VERDICT_PROVEN
    assert above.clause == CLAUSE_B


@pytest.mark.parametrize("n", [128, 243, 125, 343])
def test_analytic_witness_offline(n):
    cert = certify(n)
    assert cert.verdict == VERDICT_PROVEN
    assert cert.clause == CLAUSE_ANALYTIC
    assert cert.witnesses[0]["level"] == n
    assert cert.witnesses[0]["data_source"] == "fixture"


def test_analytic_witness_at_proper_divisor():
    cert = certify(37 * 2)
    analytic = [w for w in cert.witnesses if w["clause"] == CLAUSE_ANALYTIC]
    assert analytic and analytic[0]["level"] == 37


def test_monotone_under_multiplication():
    for base in (37, 121):
        assert certify(base).verdict == VERDICT_PROVEN
        for k in range(1, 11):
            assert certify(base * k).verdict == VERDICT_PROVEN


def test_no_certificate_claims_triviality():
    for n in (1, 6, 35, PINNED_BOUND):
        cert = certify(n)
        assert cert.verdict in (VERDICT_PROVEN, VERDICT_UNKNOWN)
        assert "trivial" not in explain(cert).replace("nontrivial", "").replace(
            "no triviality is asserted", ""
        )


def test_source_failure_degrades_to_arithmetic_clauses():
    def boom(level):
        raise TransientFetchError("offline")

    client = NewformClient(fetch_json=boom)
    cert = certify(74, newform_source=client, mode="online")
    assert cert.verdict == VERDICT_PROVEN
    assert cert.clause == CLAUSE_A1
    unknown = certify(35, newform_source=client, mode="online")
    assert unknown.verdict == VERDICT_UNKNOWN
    assert "not evaluated" in unknown.justification


def test_curve_profile_included_when_feasible():
    cert = certify(37)
    assert cert.curve_profile is not None
    assert cert.curve_profile.nu2 == 0 and cert.curve_profile.nu3 == 0
    assert certify(60).curve_profile == cover_profile(60)
    for n in (61, 121):
        big = certify(n)
        assert big.curve_profile is None
        assert "curve profile omitted: level beyond the enumeration guard" in big.justification


def test_explain_mentions_clause_and_witnesses():
    text = explain(certify(74))
    assert "A1_prime" in text
    assert "prime=37" in text
    text = explain(certify(128))
    assert "analytic_witness" in text and "128.2.a.a" in text
    text = explain(certify(1))
    assert "sufficient" in text


def test_rejects_nonpositive_level():
    with pytest.raises(ValueError):
        certify(0)
