import importlib
import json
import random
import time
import tracemalloc

import pytest

import cyclecert.newforms as newforms_mod
from cyclecert.certify import (
    CLAUSE_A1,
    CLAUSE_A2,
    CLAUSE_ANALYTIC,
    CLAUSE_B,
    CLAUSE_NONE,
    VERDICT_PROVEN,
    VERDICT_UNKNOWN,
    certify,
    large_level_bound,
)
from cyclecert.arith import factor
from cyclecert.modcurves import cover_profile
from cyclecert.newforms import NewformClient, TransientFetchError, fixture_levels

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
        assert "trivial" not in cert.justification.replace("nontrivial", "").replace(
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


def test_each_level_is_factored_once(monkeypatch):
    import cyclecert.arith as arith_mod

    certify_mod = importlib.import_module("cyclecert.certify")  # the package's `certify` is the function

    calls = []

    def counted(n):
        calls.append(n)
        return factor(n)

    def refuse(n):
        raise AssertionError("level %d factored again" % n)

    cover_profile.cache_clear()  # a cached profile would hide a second factorization
    monkeypatch.setattr(certify_mod, "factor", counted)
    monkeypatch.setattr(arith_mod, "_level_factors", refuse)
    profiles = [certify(n).curve_profile for n in range(1, 61)]
    monkeypatch.undo()
    assert calls == list(range(1, 61))
    assert profiles == [cover_profile(n) for n in range(1, 61)]


def test_offline_certificate_ignores_settings_it_never_reads(monkeypatch):
    expected = [certify(n) for n in (1, 74, 128, 6 * 9001)]
    monkeypatch.setenv("CACHE_DIR", "/nonexistent")
    monkeypatch.setenv("TIMEOUT_MS", "soon")
    monkeypatch.setenv("BASE_URL", "ftp://nowhere.invalid")
    assert [certify(n) for n in (1, 74, 128, 6 * 9001)] == expected
    # the library reads no setting: the default client has no endpoint, so the analytic clause degrades
    client = NewformClient()
    assert (client.base_url, client.cache_dir, client.timeout_ms) == (None, None, 10000)
    cert = certify(74, mode="online")
    assert cert.clause == CLAUSE_A1
    assert "analytic clause not evaluated: fetch failed at level 1: no base URL configured" in cert.justification


def test_rejects_nonpositive_level():
    with pytest.raises(ValueError):
        certify(0)


def test_malformed_newform_data_degrades_to_arithmetic_clauses(tmp_path):
    for content in ('{"records": [{"label": "1.2.a.a", "analytic_rank": 1}]}', "{not json"):
        (tmp_path / "level_1.json").write_text(content, encoding="utf-8")
        client = NewformClient(fixtures_dir=str(tmp_path))
        cert = certify(74, newform_source=client)
        assert cert.verdict == VERDICT_PROVEN and cert.clause == CLAUSE_A1
        assert "analytic clause not evaluated: malformed data at level 1" in cert.justification
        unknown = certify(35, newform_source=client)
        assert unknown.verdict == VERDICT_UNKNOWN
        assert "analytic clause not evaluated: malformed data at level 1" in unknown.justification


def test_stray_fixture_name_does_not_fail_certify(tmp_path):
    # no level is named: level_0 would divide n by zero, level_-2 divides every even n,
    # and level_007 and level_1_0 are not the files read for 7 and 10
    fixtures, cache = tmp_path / "fixtures", tmp_path / "cache" / "newforms"
    for directory in (fixtures, cache):
        directory.mkdir(parents=True)
        for name in ("level_abc.json", "level_0.json", "level_-2.json", "level_007.json", "level_1_0.json"):
            (directory / name).write_text(json.dumps({"schema_version": 1, "records": []}), encoding="utf-8")
    sources = [NewformClient(fixtures_dir=str(fixtures)), NewformClient(cache_dir=str(cache.parent)), None]
    for client in sources:
        cert = certify(74, newform_source=client)
        assert cert.clause == CLAUSE_A1 and "not evaluated" not in cert.justification
        assert certify(35, newform_source=client).verdict == VERDICT_UNKNOWN


def test_cache_record_of_another_level_is_no_witness(tmp_path):
    # a level-37 cache file holding a level-11 record is quarantined, not served as the level-37 witness
    cache = tmp_path / "newforms"
    cache.mkdir()
    record = {"level": 11, "label": "11.2.a.a", "weight": 2, "fricke_sign": -1, "analytic_rank": 1}
    payload = {"schema_version": 1, "level": 37, "records": [record]}
    (cache / "level_37.json").write_text(json.dumps(payload), encoding="utf-8")
    witness = certify(370, newform_source=NewformClient(cache_dir=str(tmp_path))).witnesses[-1]
    assert (witness["level"], witness["label"], witness["data_source"]) == (37, "37.2.a.a", "fixture")
    assert sorted(p.name for p in cache.iterdir()) == ["level_37.json.corrupt"]


# With the bundled snapshot the unknown levels are exactly the divisors of the
# bound: its primes from 11 up are the primes where the Fricke quotient of
# X0(p) has genus 0, and the snapshot's odd-sign rank-1 records at 128, 243,
# 125 and 343 sit one exponent above the bound's powers of 2, 3, 5 and 7.
_BOUND_FACTORS = factor(PINNED_BOUND)[0]
_MINIMAL_NON_DIVISORS = (
    [p ** (e + 1) for p, e in _BOUND_FACTORS.items()]
    + [37, 43, 53, 61, 67]
)


def _random_divisor_of_bound(rng):
    n = 1
    for p, e in _BOUND_FACTORS.items():
        n *= p ** rng.randint(0, e)
    return n


def _assert_unknown_iff_divides_bound(n):
    assert (certify(n).verdict == VERDICT_UNKNOWN) == (PINNED_BOUND % n == 0), n


def test_exceptional_set_minimal_non_divisors():
    assert sorted(_MINIMAL_NON_DIVISORS) == sorted(
        [2**7, 3**5, 5**3, 7**3, 37, 43, 53, 61, 67]
        + [p * p for p in (11, 13, 17, 19, 23, 29, 31, 41, 47, 59, 71)]
    )
    _assert_unknown_iff_divides_bound(PINNED_BOUND)
    rng = random.Random(20240709)
    for q in _MINIMAL_NON_DIVISORS:
        _assert_unknown_iff_divides_bound(q)
        for _ in range(20):
            cofactor = _random_divisor_of_bound(rng)
            while q * cofactor > PINNED_BOUND:
                cofactor = _random_divisor_of_bound(rng)
            _assert_unknown_iff_divides_bound(q * cofactor)


def test_exceptional_set_seeded_divisors_of_bound():
    rng = random.Random(20240710)
    for _ in range(2000):
        n = _random_divisor_of_bound(rng)
        assert PINNED_BOUND % n == 0
        _assert_unknown_iff_divides_bound(n)


def test_exceptional_set_seeded_smooth_non_divisors():
    rng = random.Random(20240711)
    checked = 0
    while checked < 2000:
        # a divisor of the bound, then one or more primes up to 71 pushed one
        # exponent past the bound's
        n = _random_divisor_of_bound(rng)
        bumped = [rng.choice(_MINIMAL_NON_DIVISORS)]
        bumped += [q for q in _MINIMAL_NON_DIVISORS if rng.random() < 0.1]
        for q in bumped:
            n *= q
        if n > PINNED_BOUND or PINNED_BOUND % n == 0:
            continue
        _assert_unknown_iff_divides_bound(n)
        checked += 1


def test_certify_at_the_bound_is_fast_and_small():
    # cold: the snapshot is listed and parsed again inside the measurement
    fixture_levels.cache_clear()
    newforms_mod._bundled_records.cache_clear()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        cert = certify(PINNED_BOUND)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.verdict == VERDICT_UNKNOWN
    assert elapsed < 0.1
    assert peak < 4 * 2**20
