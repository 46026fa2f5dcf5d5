import builtins
import io
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from math import prod

import pytest
from oracles import witness_by_divisor_scan

import cyclecert
import cyclecert.newforms as newforms_mod
from cyclecert import arith
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
    assert REQUIRED_FIXTURE_LEVELS <= set(fixture_levels())


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
    quarantine = newforms_mod._quarantine

    def moved_away_first(path):
        # another process quarantines the same file just before this one does
        os.replace(path, path + ".corrupt")
        quarantine(path)

    monkeypatch.setattr(newforms_mod, "_quarantine", moved_away_first)
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


def _run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(cyclecert.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, check=True)


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


def test_cli_reads_its_data_files_by_path():
    # -S: no site .pth file imports these first, so the package's own imports show;
    # the bundled snapshot and the schema are files in the package, read with os
    code = (
        "import json, sys, cyclecert.cli\n"
        "unused = {'importlib.resources', 'pathlib', 'tempfile'}\n"
        "print(sorted(unused & set(sys.modules)), file=sys.stderr)\n"
        "json.loads(cyclecert.cli.schema_text())\n"
        "code = cyclecert.cli.main(['certify', '1000000007'])\n"
        "print(code, sorted(unused & set(sys.modules)), file=sys.stderr)\n"
    )
    out = _run_python(code, "-S")
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
    calls, overlapped, active = [], [], []

    def fake(level):
        calls.append(level)
        overlapped.append(bool(active))
        active.append(level)
        time.sleep(0.001)
        active.remove(level)
        return [_minus_rank1("%d.2.a.a" % level)]

    client = NewformClient(fetch_json=fake, rate_limit_per_sec=1e6)
    # more threads than cores, over two levels, switching as often as the interpreter allows
    levels = [(37, 43)[i % 2] for i in range(min(2 * (os.cpu_count() or 1) + 2, 64))]
    results = [None] * len(levels)

    def fetch(i):
        results[i] = client.fetch_newforms(levels[i], mode="online")

    threads = [threading.Thread(target=fetch, args=(i,)) for i in range(len(levels))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(calls) == [37, 43] and overlapped == [False, False]
    assert [[r.label for r in records] for records in results] == [["%d.2.a.a" % m] for m in levels]


def test_failed_fetch_releases_the_lock_and_memoizes_nothing():
    calls = []

    def flaky(level):
        calls.append(level)
        if len(calls) == 1:
            raise TransientFetchError("down")
        return [_minus_rank1("37.2.a.a")]

    client = NewformClient(fetch_json=flaky, rate_limit_per_sec=1e6)
    with pytest.raises(TransientFetchError):
        client.fetch_newforms(37, mode="online")
    assert not client._lock.locked()
    assert [r.label for r in client.fetch_newforms(37, mode="online")] == ["37.2.a.a"]
    assert client.fetch_newforms(37, mode="online") == client.fetch_newforms(37, mode="online")
    assert calls == [37, 37]


def test_fetches_of_two_levels_run_one_at_a_time():
    calls, overlapped, active = [], [], []
    second = threading.Event()

    def fake(level):
        calls.append(level)
        overlapped.append(bool(active))
        active.append(level)
        if len(calls) == 1:
            # long enough for the other thread to start a fetch, were it let in
            second.wait(timeout=0.3)
        else:
            second.set()
        active.remove(level)
        return []

    client = NewformClient(fetch_json=fake, rate_limit_per_sec=1e6)
    threads = [
        threading.Thread(target=client.fetch_newforms, args=(level,), kwargs={"mode": "online"})
        for level in (5, 7)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert sorted(calls) == [5, 7] and overlapped == [False, False]


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


def _snapshot_copy(directory):
    shutil.copytree(newforms_mod._BUNDLED_DIR, directory, dirs_exist_ok=True)
    return directory


def test_bundled_scan_matches_the_oracle_and_a_fixtures_copy(tmp_path):
    copy_client = NewformClient(fixtures_dir=str(_snapshot_copy(tmp_path)))
    bound = arith.factor(arith.large_level_bound())[0]
    rng = random.Random(20241018)
    for n in range(1, 5001):
        found = witness_minus_rank1(n)
        assert found == witness_by_divisor_scan(n) == witness_minus_rank1(n, client=copy_client), n
    # these have up to 645120 divisors; those above the largest snapshot
    # level carry no data, so the oracle is handed the others, by trial
    top = max(fixture_levels())
    for _ in range(200):
        n = prod(p ** rng.randrange(e + 1) for p, e in bound.items())
        small = [d for d in range(1, top + 1) if n % d == 0]
        found = witness_minus_rank1(n)
        assert found == witness_by_divisor_scan(n, divisors=small) == witness_minus_rank1(n, client=copy_client), n


def test_bundled_scan_reads_parsed_records_in_label_order(monkeypatch):
    for m in fixture_levels():
        labels = [r.label for r in newforms_mod._bundled_records(m)]
        assert labels == sorted(labels), m

    def refuse(self, *args, **kwargs):
        raise RuntimeError("the bundled scan went through the client")

    for name in ("fetch_newforms", "available_offline_levels"):
        monkeypatch.setattr(NewformClient, name, refuse)
    assert witness_minus_rank1(74)[0] == 37
    assert certify(128).witnesses[-1]["label"] == "128.2.a.a"


def _spy_on_client_construction(monkeypatch):
    built = []
    real_init = NewformClient.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(NewformClient, "__init__", spy)
    return built


def test_default_offline_scan_builds_no_client(monkeypatch):
    monkeypatch.delenv("CACHE_DIR", raising=False)
    monkeypatch.setenv("TIMEOUT_MS", "soon")
    monkeypatch.setenv("BASE_URL", "ftp://nowhere.invalid")
    built = _spy_on_client_construction(monkeypatch)
    assert witness_minus_rank1(74)[0] == 37
    assert witness_minus_rank1(6 * 9001) is None
    assert certify(128).witnesses[-1]["label"] == "128.2.a.a"
    assert built == []
    # the online scan builds the default client, which checks every setting
    with pytest.raises(ValueError):
        witness_minus_rank1(74, mode="online")
    with pytest.raises(ValueError):
        NewformClient()
    assert len(built) == 2


def test_cache_dir_setting_still_decides_the_default_offline_witness(tmp_path, monkeypatch):
    # the offline scan reads CACHE_DIR alone and builds no client, so no other setting is parsed
    monkeypatch.setenv("CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("TIMEOUT_MS", "soon")
    monkeypatch.setenv("BASE_URL", "ftp://nowhere.invalid")
    (tmp_path / "newforms").mkdir()
    _write_level(tmp_path / "newforms", 9001, [_minus_rank1("9001.2.a.a")], schema_version=1)
    built = _spy_on_client_construction(monkeypatch)
    level, record = witness_minus_rank1(6 * 9001)
    assert (level, record.label, record.source) == (9001, "9001.2.a.a", "cache")
    witness = certify(6 * 9001).witnesses[-1]
    assert (witness["level"], witness["label"], witness["data_source"]) == (9001, "9001.2.a.a", "cache")
    assert witness_minus_rank1(74)[0] == 37
    assert certify(128).witnesses[-1]["label"] == "128.2.a.a"
    assert built == []
    # the online scan builds the default client, which rejects the malformed setting
    with pytest.raises(ValueError, match="invalid literal"):
        witness_minus_rank1(74, mode="online")
    assert len(built) == 1


def test_offline_scan_with_a_client_reads_only_its_directories(tmp_path, monkeypatch):
    client, cache = _cache_client(tmp_path, monkeypatch)
    _write_level(cache, 9001, [_minus_rank1("9001.2.a.a")], schema_version=1)

    def refuse(self, *args, **kwargs):
        raise RuntimeError("the offline scan went through the client")

    for name in ("fetch_newforms", "available_offline_levels", "_throttle"):
        monkeypatch.setattr(NewformClient, name, refuse)
    assert witness_minus_rank1(6 * 9001, client=client)[0] == 9001
    assert certify(6 * 9001, newform_source=client).witnesses[-1]["data_source"] == "cache"


def test_unknown_mode_is_rejected_on_entry(monkeypatch):
    built = _spy_on_client_construction(monkeypatch)
    # 10**40 + 1 keeps an unsplit cofactor, so no witness scan would read the mode
    calls = (
        lambda: witness_minus_rank1(74, mode="bogus"),
        lambda: certify(37, mode="bogus"),
        lambda: certify(10**40 + 1, mode="bogus"),
        lambda: NewformClient().fetch_newforms(37, mode="bogus"),
    )
    for call in calls:
        with pytest.raises(ValueError, match="^mode must be 'online' or 'offline'$"):
            call()
    assert len(built) == 1


def test_record_of_another_level_is_malformed_in_every_source(tmp_path, monkeypatch):
    foreign = dict(_minus_rank1("11.2.a.a"), level=11)
    message = "record 0 is of level 11, not 37"
    # the cache quarantines the file and falls through to the bundled fixture
    client, cache = _cache_client(tmp_path, monkeypatch)
    _write_level(cache, 37, [foreign], schema_version=1)
    assert client.fetch_newforms(37, mode="offline") == NewformClient().fetch_newforms(37, mode="offline")
    assert sorted(p.name for p in cache.iterdir()) == ["level_37.json.corrupt"]
    _write_level(cache, 37, [foreign], schema_version=1)
    assert witness_minus_rank1(370, client=client)[1].label == "37.2.a.a"
    # a fixtures override and an online payload report malformed data
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    _write_level(fixtures, 37, [foreign])
    client = NewformClient(fixtures_dir=str(fixtures))
    with pytest.raises(PayloadError, match=message):
        client.fetch_newforms(37, mode="offline")
    with pytest.raises(WitnessIndeterminate, match="malformed data at level 37: " + message):
        witness_minus_rank1(74, client=client)
    online = NewformClient(fetch_json=lambda level: [foreign], rate_limit_per_sec=1e6)
    with pytest.raises(PayloadError, match=message):
        online.fetch_newforms(37, mode="online")
    with pytest.raises(WitnessIndeterminate, match="malformed data at level 1: record 0 is of level 11, not 1"):
        witness_minus_rank1(74, mode="online", client=online)


@pytest.mark.parametrize("level", [0, -37, 37.0, True, "37"])
def test_fetch_takes_a_positive_int_level(level):
    online = NewformClient(fetch_json=lambda level: [_minus_rank1("37.2.a.a")], rate_limit_per_sec=1e6)
    for mode in ("offline", "online"):
        with pytest.raises(ValueError, match="^level must be a positive integer$"):
            online.fetch_newforms(level, mode=mode)


# each was served as a valid rank-1 witness when the values were coerced with int() and str()
MISTYPED_RECORDS = {
    "coerced_floats_and_true": {"label": "37.2.a.z", "level": 37.9, "weight": 2.5, "fricke_sign": -1.2,
                                "analytic_rank": True},
    "float_level": dict(_minus_rank1("37.2.a.z"), level=37.9),
    "true_rank": dict(_minus_rank1("37.2.a.z"), analytic_rank=True),
    "string_sign_and_rank": dict(_minus_rank1("37.2.a.z"), fricke_sign="-1", analytic_rank="1"),
    "string_level": dict(_minus_rank1("37.2.a.z"), level="37"),
    "numeric_label": _minus_rank1(37),
}


@pytest.mark.parametrize("kind", sorted(MISTYPED_RECORDS))
def test_mistyped_record_is_malformed_in_every_source(tmp_path, monkeypatch, kind):
    raw = MISTYPED_RECORDS[kind]
    # the cache quarantines the file and falls through to the bundled fixture
    client, cache = _cache_client(tmp_path, monkeypatch)
    _write_level(cache, 37, [raw], schema_version=1)
    level, record = witness_minus_rank1(74, client=client)
    assert (level, record.label, record.source) == (37, "37.2.a.a", "fixture")
    assert sorted(p.name for p in cache.iterdir()) == ["level_37.json.corrupt"]
    # a fixtures override and an online payload report malformed data
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    _write_level(fixtures, 37, [raw])
    client = NewformClient(fixtures_dir=str(fixtures))
    with pytest.raises(PayloadError, match="record 0 malformed"):
        client.fetch_newforms(37, mode="offline")
    with pytest.raises(WitnessIndeterminate, match="malformed data at level 37"):
        witness_minus_rank1(74, client=client)
    online = NewformClient(fetch_json=lambda level: [raw] if level == 37 else [], rate_limit_per_sec=1e6)
    with pytest.raises(PayloadError, match="record 0 malformed"):
        online.fetch_newforms(37, mode="online")
    with pytest.raises(WitnessIndeterminate, match="malformed data at level 37"):
        witness_minus_rank1(74, mode="online", client=online)


def test_records_that_are_no_array_are_malformed(tmp_path, monkeypatch):
    client, cache = _cache_client(tmp_path, monkeypatch)
    for payload in ([], {"schema_version": 1, "records": 5}):
        (cache / "level_37.json").write_text(json.dumps(payload), encoding="utf-8")
        assert witness_minus_rank1(74, client=client)[1].source == "fixture"
        assert (cache / "level_37.json.corrupt").exists() and not (cache / "level_37.json").exists()
        (cache / "level_37.json.corrupt").unlink()
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    (fixtures / "level_1.json").write_text(json.dumps({"records": 5}), encoding="utf-8")
    with pytest.raises(WitnessIndeterminate, match="malformed data at level 1: records for level 1 are not a JSON array"):
        witness_minus_rank1(74, client=NewformClient(fixtures_dir=str(fixtures)))
    online = NewformClient(fetch_json=lambda level: {"records": []}, rate_limit_per_sec=1e6)
    with pytest.raises(PayloadError, match="not a JSON array"):
        online.fetch_newforms(37, mode="online")


def test_malformed_bundled_level_makes_the_witness_indeterminate(tmp_path, monkeypatch):
    # undecodable, or unreadable (a directory in its place): either way certify keeps its arithmetic clauses
    spoilers = {
        "not_json": lambda path: path.write_text("{not json", encoding="utf-8"),
        "directory": os.mkdir,
    }
    for name, spoil in spoilers.items():
        snapshot = _snapshot_copy(tmp_path / name)
        (snapshot / "level_37.json").unlink()
        spoil(snapshot / "level_37.json")
        copy_client = NewformClient(fixtures_dir=str(snapshot))
        monkeypatch.setattr(newforms_mod, "_BUNDLED_DIR", str(snapshot))
        newforms_mod._bundled_records.cache_clear()
        try:
            for client in (None, copy_client):
                with pytest.raises(WitnessIndeterminate, match="malformed data at level 37: "):
                    witness_minus_rank1(74, client=client)
                assert witness_minus_rank1(128, client=client)[0] == 128
                cert = certify(74, newform_source=client)
                assert cert.clause == "A1_prime", name
                assert "analytic clause not evaluated: malformed data at level 37: " in cert.justification
        finally:
            # parsed under the replaced directory: parse again from the package
            newforms_mod._bundled_records.cache_clear()


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


# only level_<M>.json with M >= 1 written as str(M) names a level
STRAY_LEVEL_NAMES = ("level_abc.json", "level_0.json", "level_-2.json", "level_007.json", "level_1_0.json",
                     "level_+5.json", "level_.json")


def _write_stray_names(directory):
    # each would be a witness at every level it were read for
    for name in STRAY_LEVEL_NAMES:
        payload = {"schema_version": 1, "records": [_minus_rank1("stray")]}
        (directory / name).write_text(json.dumps(payload), encoding="utf-8")


def test_stray_fixture_override_name_is_skipped(tmp_path, monkeypatch):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    _write_stray_names(fixtures)
    _write_level(fixtures, 37, [_minus_rank1("37.2.a.a")])
    client = NewformClient(fixtures_dir=str(fixtures))
    assert client.available_offline_levels() == {37}
    assert witness_minus_rank1(74, client=client)[0] == 37
    assert witness_minus_rank1(70, client=client) is None
    # the same names in the cache directory, with and without a client
    client, cache = _cache_client(tmp_path, monkeypatch)
    _write_stray_names(cache)
    _write_level(cache, 9001, [_minus_rank1("9001.2.a.a")], schema_version=1)
    assert client.available_offline_levels() == set(fixture_levels()) | {9001}
    monkeypatch.setenv("CACHE_DIR", str(tmp_path))
    for found in (witness_minus_rank1(2 * 9001, client=client), witness_minus_rank1(2 * 9001)):
        assert (found[0], found[1].label) == (9001, "9001.2.a.a")
    assert witness_minus_rank1(70, client=client) is None and witness_minus_rank1(70) is None
    assert sorted(p.name for p in cache.iterdir()) == sorted(STRAY_LEVEL_NAMES + ("level_9001.json",))


@pytest.mark.parametrize("blocker", ["cache_dir_is_a_file", "cache_entry_is_a_directory"])
def test_failed_cache_write_still_serves_the_records(tmp_path, blocker):
    if blocker == "cache_dir_is_a_file":
        cache_dir = tmp_path / "cache"
        cache_dir.write_text("not a directory", encoding="utf-8")
    else:
        cache_dir = tmp_path
        (tmp_path / "newforms" / "level_37.json").mkdir(parents=True)
    calls = []

    def fake(level):
        calls.append(level)
        return [_minus_rank1("37.2.a.a")] if level == 37 else []

    client = NewformClient(cache_dir=str(cache_dir), fetch_json=fake, rate_limit_per_sec=1e6)
    assert [r.label for r in client.fetch_newforms(37, mode="online")] == ["37.2.a.a"]
    assert [r.source for r in client.fetch_newforms(37, mode="online")] == ["online"]
    assert calls == [37]
    leftovers = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
    assert leftovers == (["cache"] if blocker == "cache_dir_is_a_file" else ["newforms", "newforms/level_37.json"])
    assert witness_minus_rank1(74, mode="online", client=client)[0] == 37
    assert not any(p.name.endswith(".tmp") for p in tmp_path.rglob("*"))
    empty = NewformClient(cache_dir=str(cache_dir), fetch_json=lambda level: [], rate_limit_per_sec=1e6)
    assert certify(35, newform_source=empty, mode="online").verdict == "unknown"


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
