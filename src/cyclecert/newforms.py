"""Client for weight-2 newform analytic data: HTTP fetch, local cache, bundled fixtures.

Records carry the level, an opaque label, the sign of the functional equation
and the analytic rank, and type-check their fields with no coercion; one
normalization serves every source and rejects a record of another level than
the one read.  The online path runs under one lock per client, one rate-limited
fetch at a time, and writes the cache atomically, best effort.  The offline
path is module functions of the cache and fixtures directories alone, with no
lock: the cache, then the fixtures or the bundled snapshot.  The snapshot is
the package's own fixtures directory, read by path through the same reader as
a fixtures override, and is listed once per process and parsed per level on
first use.
Corrupt cache files are quarantined, never deleted.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time

from . import arith

CACHE_SCHEMA_VERSION = 1

ENV_BASE_URL = "BASE_URL"
ENV_CACHE_DIR = "CACHE_DIR"
ENV_TIMEOUT_MS = "TIMEOUT_MS"


class TransientFetchError(RuntimeError):
    """Network-level failure; callers may retry or degrade to offline data."""


class PayloadError(ValueError):
    """Malformed database payload; carries the index of the offending record."""

    def __init__(self, message: str, record_index: int | None = None):
        super().__init__(message)
        self.record_index = record_index


class WitnessIndeterminate(RuntimeError):
    """A witness scan could not complete; distinct from a definite 'no witness'."""


def _check_mode(mode: str) -> None:
    if mode not in ("online", "offline"):
        raise ValueError("mode must be 'online' or 'offline'")


class NewformRecord(arith._Record):
    _fields = ("level", "label", "weight", "fricke_sign", "analytic_rank", "source")

    def __init__(
        self, level: int, label: str, weight: int, fricke_sign: int, analytic_rank: int, source: str
    ) -> None:
        # type(), not isinstance(): a JSON true, 2.0 or "1" is no integer
        if type(label) is not str:
            raise ValueError("label must be a string")
        if type(source) is not str:
            raise ValueError("source must be a string")
        arith._check_level(level)
        if {type(weight), type(fricke_sign), type(analytic_rank)} != {int}:
            raise ValueError("weight, fricke_sign and analytic_rank must be integers")
        if weight != 2:
            raise ValueError("only weight-2 records are supported")
        if fricke_sign not in (1, -1):
            raise ValueError("fricke_sign must be +1 or -1")
        if analytic_rank < 0:
            raise ValueError("analytic_rank must be nonnegative")
        if (analytic_rank % 2 == 1) != (fricke_sign == -1):
            raise ValueError("analytic rank parity inconsistent with functional-equation sign for %s" % label)
        self._store(level, label, weight, fricke_sign, analytic_rank, source)


def _normalize_record(raw: object, level: int, source: str, index: int) -> NewformRecord:
    # single normalization point: a database schema change touches only this;
    # the values pass through as read, and the record checks their types
    if not isinstance(raw, dict):
        raise PayloadError("record %d is not an object" % index, index)
    try:
        record = NewformRecord(
            level=raw.get("level", level),
            label=raw["label"],
            weight=raw.get("weight", 2),
            fricke_sign=raw.get("fricke_sign", raw.get("root_number")),
            analytic_rank=raw.get("analytic_rank", raw.get("rank")),
            source=source,
        )
    except (KeyError, ValueError) as exc:
        raise PayloadError("record %d malformed: %s" % (index, exc), index) from exc
    if record.level != level:
        raise PayloadError("record %d is of level %d, not %d" % (index, record.level, level), index)
    return record


def _records(raws: object, level: int, source: str) -> list[NewformRecord]:
    # the records of one level from any source, normalized and in label order
    if not isinstance(raws, list):
        raise PayloadError("records for level %d are not a JSON array" % level)
    records = [_normalize_record(raw, level, source, i) for i, raw in enumerate(raws)]
    records.sort(key=lambda r: r.label)
    return records


# the bundled snapshot: a fixtures directory inside the installed package
_BUNDLED_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def _listed_levels(directory: str) -> set[int]:
    """Levels M >= 1 of the files `level_<M>.json` in a directory, M written as str(M); empty for no directory."""
    if not os.path.isdir(directory):
        return set()
    levels = set()
    for name in os.listdir(directory):
        if name.startswith("level_") and name.endswith(".json"):
            digits = name[len("level_") : -len(".json")]
            if digits.isascii() and digits.isdigit() and digits[0] != "0":
                levels.add(int(digits))
    return levels


# The bundled snapshot is part of the installed package, so it is listed once
# and each level is parsed on first use; the cache dir and a fixtures override
# are user-writable and are read on every call instead.
@functools.lru_cache(maxsize=1)
def fixture_levels() -> tuple[int, ...]:
    """Levels covered by the bundled fixture snapshot, in increasing order."""
    return tuple(sorted(_listed_levels(_BUNDLED_DIR)))


@functools.lru_cache(maxsize=None)
def _bundled_records(level: int) -> tuple[NewformRecord, ...]:
    # called for levels in fixture_levels() only, which bounds the cache;
    # kept in label order, so a scan's first hit is its least-labelled one
    return tuple(_read_fixture(_BUNDLED_DIR, level) or ())


def _cache_path(cache_dir: str, level: int) -> str:
    return os.path.join(cache_dir, "newforms", "level_%d.json" % level)


def _read_cache(cache_dir: str, level: int) -> list[NewformRecord] | None:
    path = _cache_path(cache_dir, level)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or payload.get("schema_version") != CACHE_SCHEMA_VERSION:
            raise ValueError("unknown cache schema version")
        return _records(payload["records"], level, "cache")
    except OSError:
        # never cached, quarantined by another process, or not a readable
        # file (a directory, no permission): a miss, left where it is
        return None
    except (ValueError, KeyError, TypeError):
        # malformed JSON, schema or records; a PayloadError is a ValueError
        _quarantine(path)
        return None


def _quarantine(path: str) -> None:
    target = path + ".corrupt"
    suffix = 0
    while os.path.exists(target):
        suffix += 1
        target = "%s.corrupt.%d" % (path, suffix)
    try:
        os.replace(path, target)
    except FileNotFoundError:
        # another process moved the corrupt file away first
        return


def _read_fixture(fixtures_dir: str, level: int) -> list[NewformRecord] | None:
    path = os.path.join(fixtures_dir, "level_%d.json" % level)
    try:
        with open(path, "rb") as fh:
            raws = json.load(fh)["records"]
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        # present but unreadable (a directory, no permission) or undecodable
        raise PayloadError("fixture for level %d is unreadable: %s" % (level, exc)) from exc
    return _records(raws, level, "fixture")


def _read_offline(cache_dir: str | None, fixtures_dir: str | None, level: int) -> list[NewformRecord]:
    """Records for one level from the cache, else the fixtures or the bundled snapshot; empty when none covers it."""
    records = _read_cache(cache_dir, level) if cache_dir else None
    if records is None:
        if fixtures_dir:
            records = _read_fixture(fixtures_dir, level)
        elif level in fixture_levels():
            records = list(_bundled_records(level))
    return records or []


def _offline_levels(cache_dir: str | None, fixtures_dir: str | None) -> set[int]:
    """Levels with a cache entry or a fixture: the bundled snapshot's unless a fixtures dir replaces it."""
    levels = _listed_levels(fixtures_dir) if fixtures_dir else set(fixture_levels())
    if cache_dir:
        levels |= _listed_levels(os.path.join(cache_dir, "newforms"))
    return levels


class NewformClient:
    """Fetches and caches newform records; safe to share across threads.

    Online fetches run one at a time under one lock, which also guards the
    memo, so a client fetches a level once.  The settings are checked once,
    here, after the environment overrides: a malformed one raises ValueError.
    """

    def __init__(
        self,
        base_url: str | None = None,
        cache_dir: str | None = None,
        timeout_ms: int = 10000,
        rate_limit_per_sec: float = 2.0,
        fixtures_dir: str | None = None,
        fetch_json=None,
        monotonic=time.monotonic,
        sleep=time.sleep,
    ):
        self.base_url = os.environ.get(ENV_BASE_URL, base_url)
        self.cache_dir = os.environ.get(ENV_CACHE_DIR, cache_dir)
        env_timeout = os.environ.get(ENV_TIMEOUT_MS)
        self.timeout_ms = int(env_timeout) if env_timeout else timeout_ms
        self.rate_limit_per_sec = rate_limit_per_sec
        self.fixtures_dir = fixtures_dir
        for name in ("base_url", "cache_dir", "fixtures_dir"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ValueError("%s must be a string or null" % name)
        # type(), not isinstance(): a JSON true is no count or rate
        if type(self.timeout_ms) is not int or self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be a positive integer")
        if type(rate_limit_per_sec) not in (int, float) or not rate_limit_per_sec > 0:
            raise ValueError("rate_limit_per_sec must be a positive number")
        self._fetch_json = fetch_json or self._http_fetch_json
        self._monotonic = monotonic
        self._sleep = sleep
        self._lock = threading.Lock()
        self._last_request = float("-inf")
        self._memo: dict[int, list[NewformRecord]] = {}

    # -- transport ---------------------------------------------------------

    def _http_fetch_json(self, level: int):
        if not self.base_url:
            raise TransientFetchError("no base URL configured (set %s)" % ENV_BASE_URL)
        # imported here so that only the online path pays for it
        import urllib.parse
        import urllib.request

        url = self.base_url + "?" + urllib.parse.urlencode({"level": level, "weight": 2})
        try:
            with urllib.request.urlopen(url, timeout=self.timeout_ms / 1000.0) as resp:
                return json.loads(resp.read())
        except (OSError, ValueError) as exc:
            # OSError covers URLError, HTTPError and timeouts; ValueError an undecodable body
            raise TransientFetchError(str(exc)) from exc

    def _throttle(self) -> None:
        # enforce the requests-per-second ceiling; called under the client's lock
        interval = 1.0 / self.rate_limit_per_sec
        now = self._monotonic()
        wait = self._last_request + interval - now
        if wait > 0:
            self._sleep(wait)
            now = self._monotonic()
        self._last_request = now

    # -- cache -------------------------------------------------------------

    def _write_cache(self, level: int, records: list[NewformRecord]) -> None:
        if not self.cache_dir:
            return
        path = _cache_path(self.cache_dir, level)
        payload = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "level": level,
            "records": [{name: getattr(r, name) for name in r._fields if name != "source"} for r in records],
        }
        # imported here so that only the online path pays for it
        import tempfile

        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, sort_keys=True, indent=1)
                os.replace(tmp, path)  # atomic on POSIX
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError:
            # best effort: the fetched records are still served, just not cached
            return

    # -- public API --------------------------------------------------------

    def available_offline_levels(self) -> set[int]:
        return _offline_levels(self.cache_dir, self.fixtures_dir)

    def fetch_newforms(self, level: int, mode: str = "offline") -> list[NewformRecord]:
        """Records for one level; sorted by label for determinism.

        Online mode performs a rate-limited GET under the client's lock,
        normalizes the JSON array and refreshes the cache, best effort.
        Offline mode reads cache then fixtures, with no lock, and returns an
        empty list when neither covers the level.
        """
        # the level is a record's default level, which must be an int
        arith._check_level(level)
        _check_mode(mode)
        if mode == "offline":
            return _read_offline(self.cache_dir, self.fixtures_dir, level)
        with self._lock:
            if level not in self._memo:
                self._throttle()
                records = _records(self._fetch_json(level), level, "online")
                self._write_cache(level, records)
                self._memo[level] = records
            return list(self._memo[level])


def witness_minus_rank1(
    n: int,
    mode: str = "offline",
    client: NewformClient | None = None,
) -> tuple[int, NewformRecord] | None:
    """First divisor level of n carrying an odd-sign rank-1 record, with the record.

    Levels are scanned in increasing order; a hit at level M certifies every
    multiple of M.  Rank exactly 1 is required: odd-sign forms of rank 3 or
    higher have vanishing central derivative and are not witnesses.  Offline
    mode walks the levels that have local data (cache and fixtures) and keeps
    those dividing n, so it needs no factorization of n; levels with no local
    data answer "no records" anyway.  It reads only the two directories, the
    client's or, with no client, CACHE_DIR alone, and builds no client; with
    neither directory it scans the bundled snapshot's parsed records.  Online
    mode builds the default NewformClient when given none, and scans every
    divisor of n, from a complete factorization.  Fetch failures and
    malformed data raise WitnessIndeterminate, which is distinct from a
    definite None.  n is a level, so anything but an `int` (not a `bool`)
    of at least 1 raises ValueError on entry (`arith._check_level`).
    """
    arith._check_level(n)
    if mode == "offline":
        dirs = (os.environ.get(ENV_CACHE_DIR), None) if client is None else (client.cache_dir, client.fixtures_dir)
        if any(dirs):
            scan = sorted(_offline_levels(*dirs))
            read = functools.partial(_read_offline, *dirs)
        else:
            scan, read = fixture_levels(), _bundled_records
    else:
        _check_mode(mode)
        client = client or NewformClient()
        try:
            scan = arith.divisors(arith._level_factors(n))
        except arith.LevelBoundError as exc:
            raise WitnessIndeterminate("cannot enumerate divisors of %d" % n) from exc
        read = functools.partial(client.fetch_newforms, mode=mode)
    for m in scan:
        if n % m:
            continue
        try:
            records = read(m)
        except TransientFetchError as exc:
            raise WitnessIndeterminate("fetch failed at level %d: %s" % (m, exc)) from exc
        except PayloadError as exc:
            raise WitnessIndeterminate("malformed data at level %d: %s" % (m, exc)) from exc
        # every source returns its records in label order
        hit = next((r for r in records if r.fricke_sign == -1 and r.analytic_rank == 1), None)
        if hit is not None:
            return m, hit
    return None
