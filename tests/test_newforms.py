import builtins
import io
import json
import os
import random
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import pytest
from oracles import witness_by_divisor_scan

import cyclecert
import cyclecert.newforms as newforms_mod
from cyclecert.certify import certify
from cyclecert.newforms import (
    NewformClient,
    NewformRecord,
    PayloadError,
    TransientFetchError,
    WitnessIndeterminate,
    fixture_levels,
    witness_minus_rank1,
)

REQUIRED_FIXTURE_LEVELS = {37, 43, 53, 61, 67, 79, 83, 89, 101, 131, 125, 128, 243, 343}


def test_fixture_coverage():
    assert REQUIRED_FIXTURE_LEVELS <= fixture_levels()


def test_record_parity_validation():
    with pytest.raises(ValueError):
        NewformRecord(level=37, label="x", weight=2, fricke_sign=1, analytic_rank=1, source="fixture")
    with pytest.raises(ValueError):
        NewformRecord(level=37, label="x", weight=4, fricke_sign=-1, analytic_rank=1, source="fixture")


def test_offline_level_37_has_exactly_one_minus_rank_one_record():
    records = NewformClient().fetch_newforms(37, mode="offline")
    hits = [r for r in records if r.fricke_sign == -1 and r.analytic_rank == 1]
    assert len(hits) == 1
    assert all(r.source == "fixture" for r in records)


def test_offline_level_128_has_a_minus_rank_one_record():
    records = NewformClient().fetch_newforms(128, mode="offline")
    assert any(r.fricke_sign == -1 and r.analytic_rank == 1 for r in records)


def test_offline_level_one_is_empty():
    assert NewformClient().fetch_newforms(1, mode="offline") == []


def test_offline_unknown_level_is_empty():
    assert NewformClient().fetch_newforms(9973, mode="offline") == []


def test_witness_scans_divisors_in_increasing_order():
    assert witness_minus_rank1(74)[0] == 37
    assert witness_minus_rank1(37 * 128)[0] == 37
    assert witness_minus_rank1(6) is None
    assert witness_minus_rank1(1) is None


def test_witness_indeterminate_on_fetch_failure():
    def boom(level):
        raise TransientFetchError("down")

    client = NewformClient(fetch_json=boom)
    with pytest.raises(WitnessIndeterminate):
        witness_minus_rank1(37, mode="online", client=client)


def test_online_fetch_normalizes_and_caches(tmp_path):
    payload = [
        {"label": "37.2.a.b", "weight": 2, "root_number": 1, "rank": 0},
        {"label": "37.2.a.a", "weight": 2, "fricke_sign": -1, "analytic_rank": 1},
    ]
    calls = []

    def fake(level):
        calls.append(level)
        return payload

    client = NewformClient(cache_dir=str(tmp_path), fetch_json=fake, rate_limit_per_sec=1e6)
    records = client.fetch_newforms(37, mode="online")
    assert [r.label for r in records] == ["37.2.a.a", "37.2.a.b"]
    assert all(r.source == "online" for r in records)
    cache_file = tmp_path / "newforms" / "level_37.json"
    assert cache_file.exists()

    offline = NewformClient(cache_dir=str(tmp_path))
    cached = offline.fetch_newforms(37, mode="offline")
    assert [r.label for r in cached] == ["37.2.a.a", "37.2.a.b"]
    assert all(r.source == "cache" for r in cached)


def test_cache_idempotence_byte_level(tmp_path):
    client = NewformClient(
        cache_dir=str(tmp_path),
        fetch_json=lambda level: [
            {"label": "43.2.a.a", "weight": 2, "fricke_sign": -1, "analytic_rank": 1}
        ],
        rate_limit_per_sec=1e6,
    )
    client.fetch_newforms(43, mode="online")
    path = tmp_path / "newforms" / "level_43.json"
    first_bytes = path.read_bytes()

    offline = NewformClient(cache_dir=str(tmp_path))
    one = json.dumps([r.__dict__ for r in offline.fetch_newforms(43, mode="offline")], sort_keys=True)
    two = json.dumps([r.__dict__ for r in offline.fetch_newforms(43, mode="offline")], sort_keys=True)
    assert one == two
    assert path.read_bytes() == first_bytes


def test_corrupt_cache_is_quarantined_not_deleted(tmp_path):
    cache = tmp_path / "newforms"
    cache.mkdir()
    bad = cache / "level_37.json"
    bad.write_text("{not json", encoding="utf-8")
    client = NewformClient(cache_dir=str(tmp_path))
    records = client.fetch_newforms(37, mode="offline")
    # falls through to the bundled fixture
    assert any(r.analytic_rank == 1 for r in records)
    assert not bad.exists()
    assert (cache / "level_37.json.corrupt").exists()


def test_quarantine_tolerates_a_concurrent_quarantine(tmp_path, monkeypatch):
    cache = tmp_path / "newforms"
    cache.mkdir()
    bad = cache / "level_37.json"
    bad.write_text("{not json", encoding="utf-8")
    client = NewformClient(cache_dir=str(tmp_path))
    quarantine = client._quarantine

    def moved_away_first(path):
        # another process quarantines the same file just before this one does
        os.replace(path, path + ".corrupt")
        quarantine(path)

    monkeypatch.setattr(client, "_quarantine", moved_away_first)
    records = client.fetch_newforms(37, mode="offline")
    assert any(r.analytic_rank == 1 for r in records)
    assert not bad.exists()
    assert sorted(p.name for p in cache.iterdir()) == ["level_37.json.corrupt"]


def test_cache_quarantined_between_check_and_open_is_a_miss(tmp_path, monkeypatch):
    cache = tmp_path / "newforms"
    cache.mkdir()
    path = cache / "level_37.json"
    path.write_text("{not json", encoding="utf-8")
    client = NewformClient(cache_dir=str(tmp_path))

    def open_after_concurrent_quarantine(file, *args, **kwargs):
        # another process quarantines the file once this one decided to read it
        if os.fspath(file) == str(path):
            os.replace(path, str(path) + ".corrupt")
        return open(file, *args, **kwargs)

    monkeypatch.setattr(newforms_mod, "open", open_after_concurrent_quarantine, raising=False)
    records = client.fetch_newforms(37, mode="offline")
    assert records == NewformClient().fetch_newforms(37, mode="offline")
    assert sorted(p.name for p in cache.iterdir()) == ["level_37.json.corrupt"]


class _Response:
    def __init__(self, body: bytes):
        self.body = body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self):
        return self.body


def _online_client(monkeypatch, urlopen):
    for name in ("BASE_URL", "CACHE_DIR", "TIMEOUT_MS"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    return NewformClient(base_url="http://newforms.test/api", timeout_ms=2500, rate_limit_per_sec=1e6)


def test_http_fetch_reads_json_body(monkeypatch):
    seen = []
    body = [{"label": "37.2.a.a", "weight": 2, "fricke_sign": -1, "analytic_rank": 1}]

    def urlopen(url, timeout):
        seen.append((url, timeout))
        return _Response(json.dumps(body).encode())

    records = _online_client(monkeypatch, urlopen).fetch_newforms(37, mode="online")
    assert [(r.label, r.source) for r in records] == [("37.2.a.a", "online")]
    assert seen == [("http://newforms.test/api?level=37&weight=2", 2.5)]


def _http_503(url, timeout):
    raise urllib.error.HTTPError(url, 503, "Service Unavailable", None, None)


def _timeout(url, timeout):
    raise TimeoutError("timed out")


def _bad_body(url, timeout):
    return _Response(b"<html>not json</html>")


@pytest.mark.parametrize("urlopen", [_http_503, _timeout, _bad_body])
def test_http_failures_are_transient(monkeypatch, urlopen):
    client = _online_client(monkeypatch, urlopen)
    with pytest.raises(TransientFetchError):
        client.fetch_newforms(37, mode="online")


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(cyclecert.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)


def test_cli_import_loads_no_http_stack():
    out = _run_python("import sys, cyclecert.cli; print(sorted({'requests', 'urllib.request'} & set(sys.modules)))")
    assert out.stdout.strip() == "[]"


def test_cli_process_loads_neither_dataclasses_nor_inspect():
    # every CLI process would pay for both modules, and for building records with them
    code = (
        "import sys, cyclecert.cli\n"
        "slow = {'dataclasses', 'inspect'}\n"
        "print(sorted(slow & set(sys.modules)), file=sys.stderr)\n"
        "code = cyclecert.cli.main(['certify', '1000000007'])\n"
        "print(code, sorted(slow & set(sys.modules)), file=sys.stderr)\n"
    )
    out = _run_python(code)
    assert json.loads(out.stdout)["verdict"] == "proven_nontrivial"
    assert out.stderr.splitlines() == ["[]", "0 []"]


def test_malformed_payload_reports_record_index():
    client = NewformClient(
        fetch_json=lambda level: [{"label": "ok", "fricke_sign": 1, "analytic_rank": 0}, {"oops": 1}],
        rate_limit_per_sec=1e6,
    )
    with pytest.raises(PayloadError) as info:
        client.fetch_newforms(11, mode="online")
    assert info.value.record_index == 1


def test_network_error_is_transient():
    client = NewformClient(base_url=None)
    with pytest.raises(TransientFetchError):
        client.fetch_newforms(37, mode="online")


def test_rate_limiter_spaces_requests():
    clock = {"t": 0.0}
    sleeps = []

    def monotonic():
        return clock["t"]

    def sleep(dt):
        sleeps.append(dt)
        clock["t"] += dt

    client = NewformClient(
        fetch_json=lambda level: [],
        rate_limit_per_sec=2.0,
        monotonic=monotonic,
        sleep=sleep,
    )
    client.fetch_newforms(5, mode="online")
    client.fetch_newforms(7, mode="online")
    client.fetch_newforms(11, mode="online")
    assert sleeps and all(abs(dt - 0.5) < 1e-9 for dt in sleeps)


def test_inflight_requests_deduplicated():
    calls = []

    def fake(level):
        calls.append(level)
        return []

    client = NewformClient(fetch_json=fake, rate_limit_per_sec=1e6)
    threads = [
        threading.Thread(target=client.fetch_newforms, args=(37,), kwargs={"mode": "online"})
        for _ in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert calls == [37]


def test_env_overrides(monkeypatch, tmp_path):
    monkeypatch.setenv("CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("TIMEOUT_MS", "1234")
    client = NewformClient(cache_dir="/ignored", timeout_ms=1)
    assert client.cache_dir == str(tmp_path)
    assert client.timeout_ms == 1234


def test_fixture_override_directory(tmp_path):
    level_dir = tmp_path
    (level_dir / "level_9001.json").write_text(
        json.dumps(
            {
                "schema_version": 1,
                "level": 9001,
                "records": [
                    {"label": "9001.2.a.a", "weight": 2, "fricke_sign": -1, "analytic_rank": 1}
                ],
            }
        ),
        encoding="utf-8",
    )
    client = NewformClient(fixtures_dir=str(level_dir))
    records = client.fetch_newforms(9001, mode="offline")
    assert len(records) == 1 and records[0].source == "fixture"
    # built-in fixtures are no longer visible through this client
    assert client.fetch_newforms(37, mode="offline") == []


def _write_level(directory, level, records, schema_version=None):
    payload = {"level": level, "records": records}
    if schema_version is not None:
        payload["schema_version"] = schema_version
    path = directory / ("level_%d.json" % level)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _minus_rank1(label):
    return {"label": label, "weight": 2, "fricke_sign": -1, "analytic_rank": 1}


def _cache_client(tmp_path, monkeypatch):
    monkeypatch.delenv("CACHE_DIR", raising=False)
    (tmp_path / "newforms").mkdir()
    return NewformClient(cache_dir=str(tmp_path)), tmp_path / "newforms"


SMOOTH_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def test_offline_scan_matches_divisor_scan_oracle_up_to_3000():
    for n in range(1, 3001):
        assert witness_minus_rank1(n) == witness_by_divisor_scan(n), n


def test_offline_scan_matches_divisor_scan_oracle_on_smooth_levels():
    rng = random.Random(20240707)
    for _ in range(300):
        n = 1
        while True:
            p = rng.choice(SMOOTH_PRIMES)
            if n * p >= 10**15:
                break
            n *= p
            if rng.random() < 0.05:
                break
        assert witness_minus_rank1(n) == witness_by_divisor_scan(n), n


def test_offline_scan_visits_cache_levels_outside_the_snapshot(tmp_path, monkeypatch):
    client, cache = _cache_client(tmp_path, monkeypatch)
    _write_level(cache, 9001, [_minus_rank1("9001.2.a.a")], schema_version=1)
    assert 9001 not in fixture_levels()
    for n in (9001, 2 * 9001, 6 * 9001, 35 * 9001, 37 * 9001, 128 * 9001, 6, 37, 74):
        found = witness_minus_rank1(n, client=client)
        assert found == witness_by_divisor_scan(n, client=client), n
    level, record = witness_minus_rank1(6 * 9001, client=client)
    assert (level, record.label, record.source) == (9001, "9001.2.a.a", "cache")
    assert witness_minus_rank1(37 * 9001, client=client)[0] == 37


_MALFORMED_FIXTURES = {
    "record_without_sign": b'{"records": [{"label": "1.2.a.a", "analytic_rank": 1}]}',
    "not_json": b"{not json",
    "not_utf8": b'{"records": [], "note": "\xff"}',
}


@pytest.mark.parametrize("content", sorted(_MALFORMED_FIXTURES))
def test_malformed_fixture_override_makes_the_witness_indeterminate(tmp_path, content):
    (tmp_path / "level_1.json").write_bytes(_MALFORMED_FIXTURES[content])
    client = NewformClient(fixtures_dir=str(tmp_path))
    with pytest.raises(PayloadError):
        client.fetch_newforms(1, mode="offline")
    with pytest.raises(WitnessIndeterminate):
        witness_minus_rank1(74, client=client)


def test_unreadable_fixture_override_makes_the_witness_indeterminate(tmp_path):
    (tmp_path / "level_1.json").mkdir()
    client = NewformClient(fixtures_dir=str(tmp_path))
    with pytest.raises(PayloadError, match="unreadable"):
        client.fetch_newforms(1, mode="offline")
    with pytest.raises(WitnessIndeterminate):
        witness_minus_rank1(74, client=client)


def test_unreadable_cache_entry_is_a_miss(tmp_path):
    entry = tmp_path / "newforms" / "level_37.json"
    entry.mkdir(parents=True)
    client = NewformClient(cache_dir=str(tmp_path))
    assert client.fetch_newforms(37, mode="offline") == NewformClient().fetch_newforms(37, mode="offline")
    assert witness_minus_rank1(74, client=client)[0] == 37
    assert entry.is_dir() and sorted(p.name for p in entry.parent.iterdir()) == ["level_37.json"]


def test_stray_fixture_override_name_is_skipped(tmp_path):
    (tmp_path / "level_abc.json").write_text("{}", encoding="utf-8")
    _write_level(tmp_path, 37, [_minus_rank1("37.2.a.a")])
    client = NewformClient(fixtures_dir=str(tmp_path))
    assert client.available_offline_levels() == {37}
    assert witness_minus_rank1(74, client=client)[0] == 37


def test_bundled_cache_holds_snapshot_levels_only():
    for n in range(1, 2001):
        certify(n)
    rng = random.Random(20240708)
    for _ in range(200):
        certify(rng.randrange(10**6, 10**18))
    NewformClient().fetch_newforms(9973, mode="offline")
    assert newforms_mod._bundled_records.cache_info().currsize <= len(fixture_levels())


def test_second_fetch_of_a_bundled_level_opens_no_file(monkeypatch):
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    newforms_mod._bundled_records.cache_clear()
    client = NewformClient()
    first = client.fetch_newforms(37, mode="offline")
    assert any(path.endswith("level_37.json") for path in opened)
    del opened[:]
    assert NewformClient().fetch_newforms(37, mode="offline") == first
    assert opened == []


def test_mutating_a_returned_list_leaves_the_next_fetch_unchanged():
    client = NewformClient()
    records = client.fetch_newforms(37, mode="offline")
    expected = list(records)
    records.clear()
    records.append("junk")
    assert client.fetch_newforms(37, mode="offline") == expected
    assert NewformClient().fetch_newforms(37, mode="offline") == expected


def test_cache_entry_wins_over_the_loaded_snapshot(tmp_path, monkeypatch):
    bundled = NewformClient().fetch_newforms(37, mode="offline")
    client, cache = _cache_client(tmp_path, monkeypatch)
    _write_level(cache, 37, [_minus_rank1("37.2.a.z")], schema_version=1)
    records = client.fetch_newforms(37, mode="offline")
    assert [(r.label, r.source) for r in records] == [("37.2.a.z", "cache")]
    assert NewformClient().fetch_newforms(37, mode="offline") == bundled


def test_corrupt_cache_is_quarantined_over_the_loaded_snapshot(tmp_path, monkeypatch):
    bundled = NewformClient().fetch_newforms(37, mode="offline")
    client, cache = _cache_client(tmp_path, monkeypatch)
    bad = cache / "level_37.json"
    bad.write_text("{not json", encoding="utf-8")
    assert client.fetch_newforms(37, mode="offline") == bundled
    assert sorted(p.name for p in cache.iterdir()) == ["level_37.json.corrupt"]


def test_fixture_override_is_reread_on_every_call(tmp_path):
    client = NewformClient(fixtures_dir=str(tmp_path))
    _write_level(tmp_path, 9001, [_minus_rank1("9001.2.a.a")])
    assert [r.label for r in client.fetch_newforms(9001, mode="offline")] == ["9001.2.a.a"]
    _write_level(tmp_path, 9001, [_minus_rank1("9001.2.a.b")])
    assert [r.label for r in client.fetch_newforms(9001, mode="offline")] == ["9001.2.a.b"]
    assert [r.label for r in NewformClient(fixtures_dir=str(tmp_path)).fetch_newforms(
        9001, mode="offline")] == ["9001.2.a.b"]
