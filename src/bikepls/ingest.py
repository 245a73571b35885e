"""External-data boundary: count fetching with a verbatim-response cache,
counts CSV parsing into columns, and census aggregation per county set.

All network access goes through an injectable transport so the entire
pipeline (and test suite) runs offline against recorded fixtures.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import hashlib
import io
import itertools
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterator, Mapping, Protocol, Sequence

import numpy as np

from .errors import (
    BikeplsError,
    CacheCorrupt,
    CategoryCountMismatch,
    MissingCounty,
    NetworkError,
    ParseError,
)
from . import frames
from .frames import COUNTS_CSV_HEADER, Counts


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
        # Imported here: urllib.request pulls in http.client, which no
        # offline command needs.
        import urllib.error
        import urllib.request

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


# Characters (or records, where the text needs the csv module) of a counts
# file turned into arrays at a time, which bounds the memory their field
# strings take.
_COUNTS_CHUNK = 1 << 20
_COUNTS_BATCH = 1 << 15

# One batch of counts cells: the line numbers, the station, date and count
# texts, and the error of a record that ends the records read, with its
# line (a row of another width than 3, or text the csv module refuses), or
# None.
_Cells = tuple[np.ndarray, Sequence[str], Sequence[str], Sequence[str],
               "tuple[int, Exception] | None"]


def _counts_cells(data: bytes, text: str) -> tuple[list[str] | None, Iterator[_Cells]]:
    """The header record of a counts CSV and batches of its other cells,
    split as ``csv.reader`` splits them; line numbers count records.

    ``text`` is ``data`` decoded. Text with no quote, carriage return or
    NUL, no line over the field size limit, and exactly three fields on
    every line is split on newlines and commas directly, a chunk of lines
    at a time; any other text goes through ``csv.reader``.
    """
    if '"' not in text and "\r" not in text and "\x00" not in text:
        # Newline and comma bytes are the characters themselves in UTF-8.
        raw = np.frombuffer(data, np.uint8)
        ends = np.flatnonzero(raw == 10)
        if not data.endswith(b"\n"):
            ends = np.append(ends, len(raw))
        commas = np.diff(np.searchsorted(np.flatnonzero(raw == 44), ends), prepend=0)
        if (commas == 2).all() and np.diff(ends, prepend=-1).max() <= csv.field_size_limit():
            first = text.find("\n")
            if first < 0:
                first = len(text)
            return text[:first].split(","), _line_batches(text, first + 1)
    records = csv.reader(io.StringIO(text))
    return next(records, None), _record_batches(records)


def _line_batches(text: str, pos: int) -> Iterator[_Cells]:
    """Cells of the lines from ``pos`` on, each line holding three fields."""
    lineno = 1
    while pos < len(text):
        end = text.find("\n", pos + _COUNTS_CHUNK)
        end = len(text) if end < 0 else end + 1
        cells = text[pos:end].rstrip("\n").replace("\n", ",").split(",")
        n = len(cells) // 3
        yield np.arange(lineno + 1, lineno + 1 + n), cells[0::3], cells[1::3], cells[2::3], None
        lineno += n
        pos = end


def _record_batches(records: Iterator[list[str]]) -> Iterator[_Cells]:
    lineno = 1
    while True:
        batch: list[list[str]] = []
        stop = None
        try:
            batch.extend(itertools.islice(records, _COUNTS_BATCH))
        except csv.Error as exc:
            stop = (lineno + len(batch) + 1, exc)
        if not batch and stop is None:
            return
        rows, numbers = [], []
        for number, row in enumerate(batch, start=lineno + 1):
            if len(row) == 3:
                rows.append(row)
                numbers.append(number)
            elif row:  # blank lines are skipped
                stop = (number, ParseError(f"line {number}: expected 3 fields, got {len(row)}"))
                break
        lineno += len(batch)
        stations, dates, texts = zip(*rows) if rows else ((), (), ())
        yield np.array(numbers, dtype=np.int64), stations, dates, texts, stop
        if stop:
            return


# Cell conversions, memoized: a counts file repeats the same few hundred
# date texts and a few thousand count texts. Each calls what a row-by-row
# parse calls, so the texts accepted stay the same.
@functools.lru_cache(maxsize=1 << 16)
def _day_ordinal(text: str) -> int:
    """``date.fromisoformat(text).toordinal()``, or 0 if that raises."""
    try:
        return dt.date.fromisoformat(text).toordinal()
    except ValueError:
        return 0


@functools.lru_cache(maxsize=1 << 16)
def _count_value(text: str) -> int:
    """``int(text)``, or -1 if that raises or is negative."""
    try:
        return max(int(text), -1)
    except ValueError:
        return -1


def parse_counts_csv(data: bytes) -> Counts:
    """Parse counts CSV bytes into columns, rows sorted by (station, day).

    Raises ``ParseError`` naming the offending line for a bad header, a
    malformed date, a negative or non-integer count, or a duplicate
    (station, date) observation. Lines are records, blank ones included,
    and the first line at fault is named.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"counts payload is not UTF-8: {exc}") from exc
    header, batches = _counts_cells(data, text)
    if header is None:
        raise ParseError("line 1: empty counts payload")
    if tuple(header) != COUNTS_CSV_HEADER:
        raise ParseError(f"line 1: bad counts header {tuple(header)}")

    codes: dict[str, int] = {}
    columns: list[tuple[np.ndarray, ...]] = []
    stop = None
    for numbers, stations, dates, texts, stop in batches:
        for station in dict.fromkeys(stations):
            codes.setdefault(station, len(codes))
        n = len(numbers)
        day = np.fromiter(map(_day_ordinal, dates), np.int64, n)
        try:
            count = np.fromiter(map(_count_value, texts), np.int64, n)
            wide = n > 0 and count.max() >= 2**31
        except OverflowError:
            wide = True
        if wide:  # Python ints keep the period totals exact
            count = np.fromiter(map(_count_value, texts), object, n)
        columns.append((np.fromiter(map(codes.__getitem__, stations), np.int64, n),
                        day, count, numbers))
        if (day == 0).any() or (count < 0).any():
            break  # a later line cannot be the first at fault

    station, day, count, numbers = (
        np.concatenate([c[k] for c in columns]) if columns else np.zeros(0, np.int64)
        for k in range(4)
    )
    counts, repeat = frames.sorted_counts(tuple(codes), station, day, count)
    faults = np.flatnonzero((day == 0) | (count < 0))[:1].tolist()
    faulty = [int(numbers[k]) for k in faults + ([repeat] if repeat is not None else [])]
    if stop is not None:
        faulty.append(stop[0])
    if not faulty:
        return counts
    lineno = min(faulty)
    if stop is not None and lineno == stop[0]:
        raise stop[1]
    records = csv.reader(io.StringIO(text))
    station_text, date_text, count_text = next(itertools.islice(records, lineno - 1, None))
    try:
        date = dt.date.fromisoformat(date_text)
    except ValueError:
        raise ParseError(f"line {lineno}: bad date {date_text!r}") from None
    try:
        value = int(count_text)
    except ValueError:
        raise ParseError(f"line {lineno}: bad count {count_text!r}") from None
    if value < 0:
        raise ParseError(f"line {lineno}: negative count {value}")
    raise ParseError(f"line {lineno}: duplicate observation for ({station_text}, {date})")


def fetch_counts(
    config: SourceConfig,
    station_id: str,
    start: dt.date,
    end: dt.date,
    transport: Transport,
    cache: ResponseCache | None = None,
) -> Counts:
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
    counts = parse_counts_csv(body)
    if station_id not in counts.station_ids:
        raise ParseError(f"response contains no rows for station {station_id!r}")
    return counts.only(station_id)


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
) -> dict[str, Counts]:
    """Fetch several stations with bounded parallelism."""
    cache = cache or ResponseCache(config.cache_dir)
    results: dict[str, Counts] = {}
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


@dataclass(frozen=True)
class CensusTable:
    """One census table, indexed once: a (county x category) array.

    ``values`` holds one row per county of ``rows``, with the categories in
    the order the table was loaded with (the schema's). A county whose
    labels are not exactly those categories has no row; ``label_counts``
    holds how many labels it has.
    """

    table_id: str
    categories: tuple[str, ...]
    rows: dict[str, int]
    values: np.ndarray
    label_counts: dict[str, int]

    def sum_over(
        self, county_sets: Sequence[Sequence[str]]
    ) -> tuple[np.ndarray, list[BikeplsError | None]]:
        """Category totals over each county set, with the first error of
        each set (None when it has none).

        A set's totals add its counties' rows one at a time in the set's
        order, starting from 0.0, so they equal a sequential sum bit for
        bit. The error names the set's first county that the table lacks
        or that has other categories.
        """
        errors: list[BikeplsError | None] = []
        for counties in county_sets:
            errors.append(next(filter(None, map(self._problem, counties)), None))
        width = max(map(len, county_sets), default=0)
        index = np.full((len(county_sets), width), -1, dtype=np.int64)
        for k, (counties, error) in enumerate(zip(county_sets, errors)):
            if error is None:
                index[k, : len(counties)] = [self.rows[c] for c in counties]
        totals = np.zeros((len(county_sets), len(self.categories)))
        for column in index.T:
            used = column >= 0
            totals[used] += self.values[column[used]]
        return totals, errors

    def _problem(self, county: str) -> BikeplsError | None:
        if county in self.rows:
            return None
        if county in self.label_counts:
            return CategoryCountMismatch(
                f"table {self.table_id}: county {county!r} has "
                f"{self.label_counts[county]} categories, expected {len(self.categories)}"
            )
        return MissingCounty(f"table {self.table_id}: county {county!r} missing")


def load_acs_table_csv(text: str, table_id: str, categories: Sequence[str]) -> CensusTable:
    """Read a ``county,label,value`` CSV and index it by the categories.

    Raises ``ParseError`` (``table <table_id> line N: ...``) for a row that
    ``frames._csv_rows`` refuses: each (county, label) once, each value a
    finite, non-negative number.
    """
    by_county: dict[str, dict[str, float]] = {}
    for _, (county, label, _), (value,) in frames._csv_rows(
            text, f"table {table_id}", ("county", "label", "value"), key=2, non_negative=True):
        by_county.setdefault(county, {})[label] = value
    categories = tuple(categories)
    index: dict[str, int] = {}
    values: list[list[float]] = []
    label_counts: dict[str, int] = {}
    for county, labels in by_county.items():
        if labels.keys() == set(categories):
            index[county] = len(values)
            values.append([labels[c] for c in categories])
        else:
            label_counts[county] = len(labels)
    return CensusTable(table_id, categories, index,
                       np.array(values, dtype=float).reshape(-1, len(categories)), label_counts)


def census_profiles(
    county_sets: Sequence[Sequence[str]],
    income: CensusTable,
    education: CensusTable,
    age: CensusTable,
    population: Mapping[str, tuple[float, float]],
    schema: AcsSchema,
) -> list[frames.SocioeconomicProfile | BikeplsError]:
    """The socioeconomic profile of each county set, or its first error.

    Counties are summed in each set's order (callers pass sorted sets).
    Errors come in this order: the income, education and age tables, then
    a county missing from the population table, then the profile's own
    arithmetic (zero female count, no households or population).
    """
    sums = [table.sum_over(county_sets) for table in (income, education, age)]
    levels = [level for _, level in schema.age_brackets]
    results: list[frames.SocioeconomicProfile | BikeplsError] = []
    for k, counties in enumerate(county_sets):
        error = next((errors[k] for _, errors in sums if errors[k] is not None), None)
        missing = [c for c in counties if c not in population]
        if error is None and missing:
            error = MissingCounty(f"population table: county {missing[0]!r} missing")
        if error is not None:
            results.append(error)
            continue
        males = females = 0.0
        for county in counties:
            males += population[county][0]
            females += population[county][1]
        (income_counts, education_counts, age_counts) = (totals[k].tolist() for totals, _ in sums)
        try:
            total, ratio = frames.population_and_gender(males, females)
            results.append(frames.SocioeconomicProfile(
                avg_income=frames.avg_income(income_counts),
                avg_education=frames.avg_education(education_counts),
                avg_age=frames.avg_age(age_counts, levels),
                total_population=total,
                male_female_ratio=ratio,
            ))
        except BikeplsError as exc:
            results.append(exc)
    return results


def load_population_csv(text: str) -> dict[str, tuple[float, float]]:
    """Read county head counts from a ``county,male,female`` CSV.

    Raises ``ParseError`` (``population line N: ...``) for a row that
    ``frames._csv_rows`` refuses: each county once, each head count a
    finite, non-negative number.
    """
    return {cells[0]: (male, female) for _, cells, (male, female) in frames._csv_rows(
        text, "population", ("county", "male", "female"), non_negative=True)}
