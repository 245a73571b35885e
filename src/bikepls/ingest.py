"""External-data boundary: count fetching with a verbatim-response cache,
counts CSV parsing, and census table aggregation.

All network access goes through an injectable transport so the entire
pipeline (and test suite) runs offline against recorded fixtures.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import io
import json
import math
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

from .errors import (
    CacheCorrupt,
    CategoryCountMismatch,
    MissingCounty,
    NetworkError,
    ParseError,
)
from .frames import COUNTS_CSV_HEADER, CountSeries


@dataclass(frozen=True)
class SourceConfig:
    """Where counts and census tables come from, and how to cache them."""

    counts_url_template: str
    cache_dir: str = ".bikepls-cache"
    timeout_s: float = 30.0
    retries: int = 2
    parallelism: int = 4

    def __post_init__(self):
        if self.timeout_s <= 0:
            raise ValueError("timeout must be positive")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


class Transport(Protocol):
    def get(self, url: str) -> bytes: ...


class LiveTransport:
    """Plain HTTP GET via urllib."""

    def __init__(self, timeout_s: float = 30.0):
        self.timeout_s = timeout_s

    def get(self, url: str) -> bytes:
        try:
            with urllib.request.urlopen(url, timeout=self.timeout_s) as resp:
                return resp.read()
        except (urllib.error.URLError, OSError) as exc:
            raise NetworkError(f"GET {url} failed: {exc}") from exc


class FixtureTransport:
    """Serves recorded responses from an in-memory mapping of url -> bytes."""

    def __init__(self, responses: Mapping[str, bytes]):
        self.responses = dict(responses)

    def get(self, url: str) -> bytes:
        if url not in self.responses:
            raise NetworkError(f"no fixture recorded for {url}")
        return self.responses[url]


class ResponseCache:
    """Verbatim response store: one file per key plus a checksum sidecar.

    Staleness is the caller's policy; the cache only guarantees integrity
    (a failed checksum surfaces as ``CacheCorrupt``).
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._locks: dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()

    def _lock_for(self, digest: str) -> threading.Lock:
        with self._locks_guard:
            return self._locks.setdefault(digest, threading.Lock())

    @staticmethod
    def _digest(key: str) -> str:
        return hashlib.sha256(key.encode("utf-8")).hexdigest()

    def _paths(self, key: str) -> tuple[Path, Path]:
        digest = self._digest(key)
        return self.directory / digest, self.directory / f"{digest}.meta.json"

    def load(self, key: str) -> bytes | None:
        """Return cached bytes, None on miss, ``CacheCorrupt`` on damage."""
        body_path, meta_path = self._paths(key)
        if not body_path.exists() or not meta_path.exists():
            return None
        body = body_path.read_bytes()
        meta = json.loads(meta_path.read_text())
        if hashlib.sha256(body).hexdigest() != meta.get("sha256"):
            raise CacheCorrupt(f"checksum mismatch for cache key {key!r}")
        return body

    def store(self, key: str, body: bytes) -> None:
        body_path, meta_path = self._paths(key)
        with self._lock_for(self._digest(key)):
            body_path.write_bytes(body)
            meta = {
                "key": key,
                "sha256": hashlib.sha256(body).hexdigest(),
                "fetched_at": dt.datetime.now(dt.timezone.utc).isoformat(),
            }
            meta_path.write_text(json.dumps(meta, indent=2))

    def evict(self, key: str) -> None:
        for path in self._paths(key):
            path.unlink(missing_ok=True)


def parse_counts_csv(data: bytes) -> dict[str, CountSeries]:
    """Parse counts CSV bytes into one date-sorted series per station.

    Raises ``ParseError`` naming the offending line for a bad header, a
    malformed date, a negative or non-integer count, or a duplicate
    (station, date) observation.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"counts payload is not UTF-8: {exc}") from exc
    reader = csv.reader(io.StringIO(text))
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise ParseError("line 1: empty counts payload") from None
    if header != COUNTS_CSV_HEADER:
        raise ParseError(f"line 1: bad counts header {header}")

    rows: dict[str, dict[dt.date, int]] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(f"line {lineno}: expected 3 fields, got {len(row)}")
        station, date_text, count_text = row
        try:
            date = dt.date.fromisoformat(date_text)
        except ValueError:
            raise ParseError(f"line {lineno}: bad date {date_text!r}") from None
        try:
            count = int(count_text)
        except ValueError:
            raise ParseError(f"line {lineno}: bad count {count_text!r}") from None
        if count < 0:
            raise ParseError(f"line {lineno}: negative count {count}")
        per_station = rows.setdefault(station, {})
        if date in per_station:
            raise ParseError(
                f"line {lineno}: duplicate observation for ({station}, {date})"
            )
        per_station[date] = count

    return {
        station: CountSeries(
            station_id=station,
            entries=tuple(sorted(dates.items())),
        )
        for station, dates in rows.items()
    }


def fetch_counts(
    config: SourceConfig,
    station_id: str,
    start: dt.date,
    end: dt.date,
    transport: Transport,
    cache: ResponseCache | None = None,
) -> CountSeries:
    """Fetch (or replay) the counts for one station over a date range.

    A warm cache entry that covers the range is served with no transport
    call; a corrupt entry is evicted and refetched. Live responses are
    stored verbatim before parsing, so parsing is deterministic from bytes.
    """
    if start > end:
        raise ValueError("range start is after range end")
    cache = cache or ResponseCache(config.cache_dir)
    key = f"{station_id}|{start.isoformat()}|{end.isoformat()}"
    try:
        body = cache.load(key)
    except CacheCorrupt:
        cache.evict(key)
        body = None
    if body is None:
        url = config.counts_url_template.format(
            station=station_id, start=start.isoformat(), end=end.isoformat()
        )
        body = _get_with_retries(transport, url, config.retries)
        cache.store(key, body)
    series_by_station = parse_counts_csv(body)
    if station_id not in series_by_station:
        raise ParseError(f"response contains no rows for station {station_id!r}")
    return series_by_station[station_id]


def _get_with_retries(transport: Transport, url: str, retries: int) -> bytes:
    last: Exception | None = None
    for _ in range(retries + 1):
        try:
            return transport.get(url)
        except NetworkError as exc:
            last = exc
    raise NetworkError(f"GET {url} failed after {retries + 1} attempts: {last}")


def fetch_many(
    config: SourceConfig,
    station_ids: Sequence[str],
    start: dt.date,
    end: dt.date,
    transport: Transport,
    cache: ResponseCache | None = None,
) -> dict[str, CountSeries]:
    """Fetch several stations with bounded parallelism."""
    cache = cache or ResponseCache(config.cache_dir)
    results: dict[str, CountSeries] = {}
    with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
        futures = {
            station: pool.submit(
                fetch_counts, config, station, start, end, transport, cache
            )
            for station in station_ids
        }
        for station, future in futures.items():
            results[station] = future.result()
    return results


def fixture_transport_from_dir(directory: str | Path) -> FixtureTransport:
    """Build a fixture transport from a directory with a ``manifest.json``
    mapping each URL to a relative response file."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    responses = {
        url: (directory / relpath).read_bytes() for url, relpath in manifest.items()
    }
    return FixtureTransport(responses)


# --- census tables -----------------------------------------------------------

@dataclass(frozen=True)
class RawAcsTable:
    """Rows of (county, category label, value) for one census table."""

    table_id: str
    rows: tuple[tuple[str, str, float], ...]

    def __post_init__(self):
        seen: set[tuple[str, str]] = set()
        for county, label, value in self.rows:
            if value < 0:
                raise ValueError(
                    f"table {self.table_id}: negative value for {county}/{label}"
                )
            if (county, label) in seen:
                raise ValueError(
                    f"table {self.table_id}: duplicate label {label!r} for {county!r}"
                )
            seen.add((county, label))

    def counties(self) -> frozenset[str]:
        return frozenset(county for county, _, _ in self.rows)


@dataclass(frozen=True)
class AcsSchema:
    """Canonical category orders for the census tables, shipped versioned.

    The table layouts only fix the number of categories; their labels and
    order are declared once here so parsing is unambiguous.
    """

    version: int
    income_categories: tuple[str, ...]
    education_levels: tuple[str, ...]
    age_brackets: tuple[tuple[str, float], ...]  # (label, representative level)

    def __post_init__(self):
        if len(self.income_categories) != 10:
            raise ValueError("schema must declare 10 income categories")
        if len(self.education_levels) != 9:
            raise ValueError("schema must declare 9 education levels")
        if not self.age_brackets:
            raise ValueError("schema must declare at least one age bracket")

    @classmethod
    def from_json(cls, text: str) -> "AcsSchema":
        doc = json.loads(text)
        return cls(
            version=int(doc["version"]),
            income_categories=tuple(doc["income_categories"]),
            education_levels=tuple(doc["education_levels"]),
            age_brackets=tuple(
                (b["label"], float(b["level"])) for b in doc["age_brackets"]
            ),
        )

    @classmethod
    def bundled(cls) -> "AcsSchema":
        text = resources.files("bikepls.data").joinpath("acs_schema.json").read_text()
        return cls.from_json(text)


def load_acs_table_csv(text: str, table_id: str) -> RawAcsTable:
    """Read a ``county,label,value`` CSV into a raw table."""
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader))
    if header != ("county", "label", "value"):
        raise ParseError(f"table {table_id}: bad header {header}")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(f"table {table_id} line {lineno}: expected 3 fields")
        try:
            value = float(row[2])
        except ValueError:
            raise ParseError(
                f"table {table_id} line {lineno}: bad value {row[2]!r}"
            ) from None
        rows.append((row[0], row[1], value))
    return RawAcsTable(table_id=table_id, rows=tuple(rows))


def _sum_categories(
    table: RawAcsTable,
    counties: Iterable[str],
    expected_labels: Sequence[str],
) -> list[float]:
    """Sum a table's category counts over the counties, in canonical order."""
    counties = sorted(set(counties))
    by_county: dict[str, dict[str, float]] = {}
    for county, label, value in table.rows:
        by_county.setdefault(county, {})[label] = value
    totals = [0.0] * len(expected_labels)
    for county in counties:
        if county not in by_county:
            raise MissingCounty(f"table {table.table_id}: county {county!r} missing")
        labels = by_county[county]
        if set(labels) != set(expected_labels):
            raise CategoryCountMismatch(
                f"table {table.table_id}: county {county!r} has "
                f"{len(labels)} categories, expected {len(expected_labels)}"
            )
        for i, label in enumerate(expected_labels):
            totals[i] += labels[label]
    return totals


def parse_acs_income(
    table: RawAcsTable, counties: Iterable[str], schema: AcsSchema
) -> list[float]:
    """Catchment-level income category counts (10, ascending order)."""
    return _sum_categories(table, counties, schema.income_categories)


def parse_acs_education(
    table: RawAcsTable, counties: Iterable[str], schema: AcsSchema
) -> list[float]:
    """Catchment-level education level counts (9, levels 0..8)."""
    return _sum_categories(table, counties, schema.education_levels)


def parse_acs_age(
    table: RawAcsTable, counties: Iterable[str], schema: AcsSchema
) -> tuple[list[float], list[float]]:
    """Catchment-level age bracket counts plus their representative levels."""
    labels = [label for label, _ in schema.age_brackets]
    counts = _sum_categories(table, counties, labels)
    levels = [level for _, level in schema.age_brackets]
    return counts, levels


def load_population_csv(text: str) -> dict[str, tuple[float, float]]:
    """Read county head counts from a ``county,male,female`` CSV."""
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader))
    if header != ("county", "male", "female"):
        raise ParseError(f"bad population header: {header}")
    out: dict[str, tuple[float, float]] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(f"population line {lineno}: expected 3 fields, got {len(row)}")
        if row[0] in out:
            raise ParseError(f"population line {lineno}: duplicate county {row[0]!r}")
        try:
            male, female = float(row[1]), float(row[2])
        except ValueError:
            raise ParseError(f"population line {lineno}: bad head count in {row[1:]}") from None
        if not (0 <= male < math.inf and 0 <= female < math.inf):
            raise ParseError(
                f"population line {lineno}: head counts must be finite and "
                f"non-negative, got {row[1:]}"
            )
        out[row[0]] = (male, female)
    return out
