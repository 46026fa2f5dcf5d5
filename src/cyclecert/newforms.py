"""Client for weight-2 newform analytic data: HTTP fetch, local cache, bundled fixtures.

Records carry the level, an opaque label, the sign of the functional equation
and the analytic rank.  The online path is rate limited, deduplicates
concurrent requests for the same level, and writes the cache atomically;
the offline path reads the cache and then the bundled fixture snapshot,
which is listed once per process and parsed one level at a time on first use.
Corrupt cache files are quarantined, never deleted.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
import threading
import time
from importlib import resources

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


class NewformRecord(arith._Record):
    _fields = ("level", "label", "weight", "fricke_sign", "analytic_rank", "source")

    def __init__(
        self, level: int, label: str, weight: int, fricke_sign: int, analytic_rank: int, source: str
    ) -> None:
        if weight != 2:
            raise ValueError("only weight-2 records are supported")
        if fricke_sign not in (1, -1):
            raise ValueError("fricke_sign must be +1 or -1")
        if analytic_rank < 0:
            raise ValueError("analytic_rank must be nonnegative")
        if (analytic_rank % 2 == 1) != (fricke_sign == -1):
            raise ValueError("analytic rank parity inconsistent with functional-equation sign for %s" % label)
        self.__dict__.update(
            level=level,
            label=label,
            weight=weight,
            fricke_sign=fricke_sign,
            analytic_rank=analytic_rank,
            source=source,
        )


def _normalize_record(raw: object, level: int, source: str, index: int) -> NewformRecord:
    # single normalization point: a database schema change touches only this
    if not isinstance(raw, dict):
        raise PayloadError("record %d is not an object" % index, index)
    try:
        label = str(raw["label"])
        weight = int(raw.get("weight", 2))
        sign = raw.get("fricke_sign", raw.get("root_number"))
        rank = raw.get("analytic_rank", raw.get("rank"))
        if sign is None or rank is None:
            raise KeyError("fricke_sign/analytic_rank")
        rec_level = int(raw.get("level", level))
        return NewformRecord(
            level=rec_level,
            label=label,
            weight=weight,
            fricke_sign=int(sign),
            analytic_rank=int(rank),
            source=source,
        )
    except PayloadError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise PayloadError("record %d malformed: %s" % (index, exc), index) from exc


def _fixture_dir():
    return resources.files(__package__) / "fixtures"


def _levels_named(names) -> set[int]:
    """Levels M of the `level_<M>.json` file names; any other name is skipped."""
    levels = set()
    for name in names:
        if name.startswith("level_") and name.endswith(".json"):
            try:
                levels.add(int(name[len("level_") : -len(".json")]))
            except ValueError:
                continue
    return levels


def _fixture_records(data: bytes, level: int) -> list[NewformRecord]:
    try:
        raws = json.loads(data)["records"]
    except (ValueError, KeyError, TypeError) as exc:
        raise PayloadError("fixture for level %d is unreadable: %s" % (level, exc)) from exc
    return [_normalize_record(raw, level, "fixture", i) for i, raw in enumerate(raws)]


# The bundled snapshot is part of the installed package, so it is listed once
# and each level is parsed on first use; the cache dir and a fixtures override
# are user-writable and are read on every call instead.
@functools.lru_cache(maxsize=1)
def fixture_levels() -> frozenset[int]:
    """Levels covered by the bundled fixture snapshot."""
    return frozenset(_levels_named(entry.name for entry in _fixture_dir().iterdir()))


@functools.lru_cache(maxsize=None)
def _bundled_records(level: int) -> tuple[NewformRecord, ...]:
    # called for levels in fixture_levels() only, which bounds the cache
    data = (_fixture_dir() / ("level_%d.json" % level)).read_bytes()
    return tuple(_fixture_records(data, level))


class NewformClient:
    """Fetches and caches newform records; safe to share across threads.

    The settings are checked once, here, after the environment overrides:
    a malformed one raises ValueError.
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
        self._limiter_lock = threading.Lock()
        self._last_request = float("-inf")
        self._level_locks: dict[int, threading.Lock] = {}
        self._level_locks_guard = threading.Lock()
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
        # serialize callers and enforce the requests-per-second ceiling
        with self._limiter_lock:
            interval = 1.0 / self.rate_limit_per_sec
            now = self._monotonic()
            wait = self._last_request + interval - now
            if wait > 0:
                self._sleep(wait)
                now = self._monotonic()
            self._last_request = now

    # -- cache -------------------------------------------------------------

    def _cache_path(self, level: int) -> str | None:
        if not self.cache_dir:
            return None
        return os.path.join(self.cache_dir, "newforms", "level_%d.json" % level)

    def _read_cache(self, level: int) -> list[NewformRecord] | None:
        path = self._cache_path(level)
        if path is None:
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if payload.get("schema_version") != CACHE_SCHEMA_VERSION:
                raise ValueError("unknown cache schema version")
            return [
                _normalize_record(raw, level, "cache", i)
                for i, raw in enumerate(payload["records"])
            ]
        except OSError:
            # never cached, quarantined by another process, or not a readable
            # file (a directory, no permission): a miss, left where it is
            return None
        except (ValueError, KeyError, TypeError, PayloadError):
            self._quarantine(path)
            return None

    def _quarantine(self, path: str) -> None:
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

    def _write_cache(self, level: int, records: list[NewformRecord]) -> None:
        path = self._cache_path(level)
        if path is None:
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "level": level,
            "records": [
                {
                    "level": r.level,
                    "label": r.label,
                    "weight": r.weight,
                    "fricke_sign": r.fricke_sign,
                    "analytic_rank": r.analytic_rank,
                }
                for r in records
            ],
        }
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True, indent=1)
            os.replace(tmp, path)  # atomic on POSIX
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    # -- fixtures ----------------------------------------------------------

    def _read_fixture(self, level: int) -> list[NewformRecord] | None:
        if not self.fixtures_dir:
            return list(_bundled_records(level)) if level in fixture_levels() else None
        path = os.path.join(self.fixtures_dir, "level_%d.json" % level)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return None
        except OSError as exc:
            # present but unreadable (a directory, no permission)
            raise PayloadError("fixture for level %d is unreadable: %s" % (level, exc)) from exc
        return _fixture_records(data, level)

    def available_offline_levels(self) -> set[int]:
        if not self.fixtures_dir:
            levels = set(fixture_levels())
        elif os.path.isdir(self.fixtures_dir):
            levels = _levels_named(os.listdir(self.fixtures_dir))
        else:
            levels = set()
        cache_root = os.path.join(self.cache_dir, "newforms") if self.cache_dir else None
        if cache_root and os.path.isdir(cache_root):
            levels |= _levels_named(os.listdir(cache_root))
        return levels

    # -- public API --------------------------------------------------------

    def fetch_newforms(self, level: int, mode: str = "offline") -> list[NewformRecord]:
        """Records for one level; sorted by label for determinism.

        Online mode performs a rate-limited GET, normalizes the JSON array and
        refreshes the cache.  Offline mode reads cache then fixtures, and
        returns an empty list when neither covers the level.
        """
        if level < 1:
            raise ValueError("level must be a positive integer")
        if mode not in ("online", "offline"):
            raise ValueError("mode must be 'online' or 'offline'")
        lock = self._lock_for(level)
        with lock:
            if mode == "online":
                if level in self._memo:
                    return list(self._memo[level])
                self._throttle()
                payload = self._fetch_json(level)
                if not isinstance(payload, list):
                    raise PayloadError("payload is not a JSON array")
                records = [
                    _normalize_record(raw, level, "online", i)
                    for i, raw in enumerate(payload)
                ]
                records.sort(key=lambda r: r.label)
                self._write_cache(level, records)
                self._memo[level] = records
                return list(records)
            records = self._read_cache(level)
            if records is None:
                records = self._read_fixture(level)
            if records is None:
                return []
            records.sort(key=lambda r: r.label)
            return records

    def _lock_for(self, level: int) -> threading.Lock:
        with self._level_locks_guard:
            if level not in self._level_locks:
                self._level_locks[level] = threading.Lock()
            return self._level_locks[level]


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
    data answer "no records" anyway.  Online mode scans every divisor of n,
    from a complete factorization.  Fetch failures and malformed data raise
    WitnessIndeterminate, which is distinct from a definite None.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    client = client or NewformClient()
    if mode == "offline":
        scan = [m for m in sorted(client.available_offline_levels()) if n % m == 0]
    else:
        factors, cofactor = arith.factor(n)
        if cofactor > 1:
            raise WitnessIndeterminate("cannot enumerate divisors of %d" % n)
        scan = sorted(arith.divisors(factors))
    for m in scan:
        try:
            records = client.fetch_newforms(m, mode=mode)
        except TransientFetchError as exc:
            raise WitnessIndeterminate("fetch failed at level %d: %s" % (m, exc)) from exc
        except PayloadError as exc:
            raise WitnessIndeterminate("malformed data at level %d: %s" % (m, exc)) from exc
        hits = [r for r in records if r.fricke_sign == -1 and r.analytic_rank == 1]
        if hits:
            return m, min(hits, key=lambda r: r.label)
    return None
