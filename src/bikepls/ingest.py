"""External-data boundary: count fetching with a verbatim-response cache,
counts CSV parsing into columns, and census aggregation per county set.

All network access goes through an injectable transport so the entire
pipeline (and test suite) runs offline against recorded fixtures.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import io
import itertools
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Protocol, Sequence

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
    """Serves recorded responses from a mapping of url -> bytes, or url ->
    the path of a file that holds them, read when its URL is requested."""

    def __init__(self, responses: Mapping[str, bytes | Path]):
        self.responses = responses

    def get(self, url: str) -> bytes:
        if url not in self.responses:
            raise NetworkError(f"no fixture recorded for {url}")
        body = self.responses[url]
        return body.read_bytes() if isinstance(body, Path) else body


class ResponseCache:
    """Verbatim response store: one file per key, named by the key's
    sha256. Its first line is the body's sha256 in hex; the body follows.

    An entry is written to a temp file and renamed into place, so a reader
    sees a whole entry or none. Staleness is the caller's policy; the cache
    only guarantees integrity (a failed checksum surfaces as ``CacheCorrupt``).
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / hashlib.sha256(key.encode("utf-8")).hexdigest()

    def load(self, key: str) -> bytes | None:
        """Return cached bytes, None on miss, ``CacheCorrupt`` on damage."""
        try:
            entry = self._path(key).read_bytes()
        except FileNotFoundError:
            return None
        checksum, newline, body = entry.partition(b"\n")
        if not newline or checksum != hashlib.sha256(body).hexdigest().encode():
            raise CacheCorrupt(f"checksum mismatch for cache key {key!r}")
        return body

    def store(self, key: str, body: bytes) -> None:
        path = self._path(key)
        # A name no other thread or process writes to at the same time.
        temp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
        with open(temp, "wb") as f:
            f.write(hashlib.sha256(body).hexdigest().encode() + b"\n" + body)
        os.replace(temp, path)

    def evict(self, key: str) -> None:
        self._path(key).unlink(missing_ok=True)
        Path(f"{self._path(key)}.meta.json").unlink(missing_ok=True)  # the old layout's sidecar


# Bytes (or records, where the text needs the csv module) of a counts file
# turned into arrays at a time, which bounds the memory their cells take.
_COUNTS_CHUNK = 1 << 20
_COUNTS_BATCH = 1 << 15

# One batch of counts rows: the line numbers, station codes, day ordinals
# (0 for a bad date) and counts (-1 for a bad one), and the ``ParseError``
# of a record that ends the records read, with its line (a row of another
# width than 3, or text the csv module refuses), or None.
_Batch = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
               "tuple[int, ParseError] | None"]


def _word_masks(template: bytes) -> np.ndarray:
    """Masks that test 8-byte little-endian words against ``template``: a
    (4, k) array of rows (high, pattern, carry, low) for a template of k
    words. In the template a digit stands for an ASCII digit no greater
    than it, ``?`` for any byte, and any other byte for itself.

    A word ``x`` matches when ``x & high == pattern`` (each digit's high
    nibble is 3, each other byte itself) and ``(x + carry) & high ==
    pattern`` (adding ``15 - d`` to the low nibble of a digit that may be
    up to ``d`` does not carry into its high nibble). ``x & low`` then
    holds each digit's value in its byte.
    """
    t = np.frombuffer(template, np.uint8)
    digit, free = (t >= ord("0")) & (t <= ord("9")), t == ord("?")
    rows = (np.where(digit, 0xF0, np.where(free, 0, 0xFF)), np.where(digit, 0x30, t * ~free),
            np.where(digit, 15 - (t - ord("0")), 0), np.where(digit, 0x0F, 0))
    return np.array(rows, np.uint8).view("<u8")


def _cell_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """What reads a line's date and count from 2 + k words: the two that
    end at the comma before the count, then the k that end at the line's
    end.

    The masks, (4, 2 + k, 8k + 2), test a date (``YYYY-MM-DD`` after the
    first comma, with a month's first digit at most 1) and a count of each
    size up to 8k + 1 digits (the last index). A count of no digits or of
    more than 15 matches no text: its template wants bytes 0xFF, which
    UTF-8 never holds. The places, (2 + k, 8, 2 + 2k), turn the words'
    digit bytes into the date's month index (``20 * year + month``) and day
    of the month, then the count's value four digits at a time. Each is
    below 2**24, so float32 holds it exactly.
    """
    date = b"?????,9999-19-99"
    masks = np.stack([_word_masks(date + (b"?" * (8 * k - size) + b"9" * size
                                         if 1 <= size <= min(15, 8 * k) else b"\xff" * 8 * k))
                      for size in range(8 * k + 2)], axis=-1)
    places = np.zeros((16 + 8 * k, 2 + 2 * k), np.float32)
    places[[6, 7, 8, 9, 11, 12, 14, 15], [0, 0, 0, 0, 0, 0, 1, 1]] = [20000, 2000, 200, 20,
                                                                      10, 1, 10, 1]
    for j in range(2 * k):
        places[16 + 4 * j:20 + 4 * j, 2 + j] = [1000, 100, 10, 1]
    return masks, places.reshape(2 + k, 8, 2 + 2 * k)


# Count cells of up to 8 and 16 bytes; a count has 1 to 15 digits.
_CELL_TABLES = {k: _cell_tables(k) for k in (1, 2)}


def _month_table() -> tuple[np.ndarray, np.ndarray]:
    """For each year from 0 to 9999 and month from 0 to 19, at index
    ``20 * year + month``: the days from 0001-01-01 to the month's first
    day, and the days in the month (none in year 0, month 0 and months 13
    to 19). A day's ordinal (``date.toordinal``) is its month's first
    entry plus its day of the month."""
    year = np.arange(10000)[:, None]
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    days = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31] + [0] * 7,
                    np.uint8) + (leap & (np.arange(20) == 2))
    days[0] = 0
    days = days.ravel()
    return np.cumsum(days, dtype=np.int32) - days, days


_DAYS_BEFORE, _MONTH_DAYS = _month_table()

# The masks that keep the last j bytes of a word, for j from 0 to 8.
_LAST_BYTES = np.array([(1 << 64) - (1 << (64 - 8 * j)) for j in range(9)], np.uint64)


def _words(data: bytes) -> np.ndarray:
    """The 8 bytes from each offset of ``data`` as one little-endian word."""
    return np.ndarray((len(data) - 7,), "<u8", data, 0, (1,))


def _counts_batches(data: bytes, text: str,
                    codes: dict[str, int]) -> tuple[list[str] | None, Iterator[_Batch]]:
    """The header record of a counts CSV and batches of its other rows,
    split as ``csv.reader`` splits them; line numbers count records.
    Station codes index ``codes``, which gains each new station.

    ``text`` is ``data`` decoded. Text with no quote, NUL or carriage
    return other than in ``\\r\\n``, no line over the field size limit, and
    exactly three fields on every line is read from its bytes, with the
    ``\\r`` of each ``\\r\\n`` dropped, by ``_byte_rows``; any other text
    goes through ``csv.reader``.
    """
    plain = data.replace(b"\r\n", b"\n") if b"\r" in data else data
    if b'"' not in plain and b"\r" not in plain and b"\x00" not in plain:
        # Newline and comma bytes are the characters themselves in UTF-8.
        raw = np.frombuffer(plain, np.uint8)
        seps = np.flatnonzero((raw == 44) | (raw == 10))
        kinds = raw[seps]
        if not plain.endswith(b"\n"):  # the last line ends where the data does
            seps, kinds = np.append(seps, len(raw)), np.append(kinds, 10)
        # On each line a comma, a comma, then the line's end.
        if len(seps) % 3 == 0 and (kinds.reshape(-1, 3) == (44, 44, 10)).all():
            seps = seps.reshape(-1, 3)
            ends = seps[:, 2]
            if (ends[1:] - ends[:-1]).max(initial=ends[0] + 1) <= csv.field_size_limit():
                return plain[:ends[0]].decode().split(","), _byte_batches(plain, seps, codes)
    records = csv.reader(io.StringIO(text))
    try:
        return next(records, None), _record_batches(records, codes)
    except csv.Error as exc:
        raise ParseError(f"line 1: {exc}") from None


def _byte_batches(data: bytes, seps: np.ndarray, codes: dict[str, int]) -> Iterator[_Batch]:
    """The rows of the lines after the first, about ``_COUNTS_CHUNK``
    bytes of lines at a time, given each line's two commas and end."""
    starts, seps = seps[:-1, 2] + 1, seps[1:]
    lo = 0
    while lo < len(seps):
        hi = max(lo + 1, int(seps[:, 2].searchsorted(starts[lo] + _COUNTS_CHUNK)))
        yield _byte_rows(data, starts[lo:hi], seps[lo:hi], lo + 2, codes)
        lo = hi


def _byte_rows(data: bytes, start: np.ndarray, seps: np.ndarray, first: int,
               codes: dict[str, int]) -> _Batch:
    """The rows of lines numbered from ``first``, each ``station,date,count``
    from ``start`` with its two commas and its end in ``seps``."""
    sep, last, end = seps.T
    # A word read here starts at most 15 bytes before its line, after the
    # 22-byte header, so it lies within ``data``.
    words = _words(data)
    day, count = _cells(words, sep, last, end)
    station = _station_codes(data, words, start, sep, codes)
    return np.arange(first, first + len(start)), station, day, count, None


def _cells(words: np.ndarray, sep: np.ndarray, last: np.ndarray,
           end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The day ordinal and count of each line, given the words of its text
    and its two commas and end: 0 for a date and -1 for a count outside
    the grammar that ``parse_counts_csv`` states.

    The digit bytes of the two words that end at the second comma and the
    k that end at the line's end are tested and weighted by the cell
    tables of the longest count (up to 16 bytes).
    """
    n = len(last)
    size = end - last - 1
    k = 1 if size.max(initial=0) <= 8 else 2
    masks, places = _CELL_TABLES[k]
    at = np.empty((2 + k, n), np.int64)
    at[0], at[1] = last - 16, last - 8
    for j in range(k):
        at[2 + j] = end - 8 * (k - j)
    x = words[at]
    high, pattern, carry, low = masks.take(np.minimum(size, 8 * k + 1), axis=-1)
    bad = ((x & high) ^ pattern) | (((x + carry) & high) ^ pattern) != 0
    values = np.matmul((x & low).view(np.uint8).reshape(2 + k, n, 8), places).sum(axis=0)
    month, day_of_month, *parts = values.astype(np.int64).T
    # A real calendar day: ten bytes between the commas, whose month
    # (``20 * year + month``) has days in the table, and whose day of the
    # month is one of them.
    month = np.minimum(month, len(_MONTH_DAYS) - 1)  # on lines that did not match
    real = (~bad[:2].any(axis=0) & (last - sep == 11) & (day_of_month >= 1)
            & (day_of_month <= _MONTH_DAYS[month]))
    day = np.where(real, _DAYS_BEFORE[month] + day_of_month, 0)
    count = parts[0]
    for part in parts[1:]:
        count = count * 10**4 + part
    count[bad[2:].any(axis=0)] = -1
    return day, count


def _station_codes(data: bytes, words: np.ndarray, start: np.ndarray, sep: np.ndarray,
                   codes: dict[str, int]) -> np.ndarray:
    """The code of each line's station, the id from ``start`` to the comma
    at ``sep``, decoded on the first line of each run of lines with the
    same id bytes.

    A line starts a run unless its id and the comma after it have the
    previous line's length and bytes, compared 8 bytes at a time back from
    the comma. In the first 8 bytes the comma's place tells lengths apart
    (the text holds no NUL); past them, lengths are compared first.
    """
    size = sep - start + 1
    key = words[sep - 7] & _LAST_BYTES[np.minimum(size, 8)]
    new = np.empty(len(start), bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    if size.max() > 8:
        new[1:] |= size[1:] != size[:-1]
        pairs = np.flatnonzero(~new & (size > 8))
        back = 8
        while len(pairs):
            differ = ((words[sep[pairs] - 7 - back] ^ words[sep[pairs - 1] - 7 - back])
                      & _LAST_BYTES[np.minimum(size[pairs] - back, 8)]) != 0
            new[pairs[differ]] = True
            back += 8
            pairs = pairs[~differ & (size[pairs] > back)]
    runs = np.flatnonzero(new)
    run_codes = [codes.setdefault(data[a:b].decode(), len(codes))
                 for a, b in zip(start[runs].tolist(), sep[runs].tolist())]
    return np.array(run_codes, np.int64)[np.cumsum(new) - 1]


def _record_batches(records: Iterator[list[str]], codes: dict[str, int]) -> Iterator[_Batch]:
    lineno = 1
    while True:
        batch: list[list[str]] = []
        stop = None
        try:
            batch.extend(itertools.islice(records, _COUNTS_BATCH))
        except csv.Error as exc:
            number = lineno + len(batch) + 1
            stop = (number, ParseError(f"line {number}: {exc}"))
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
        station = np.array([codes.setdefault(row[0], len(codes)) for row in rows], np.int64)
        day, count = _record_cells(rows)
        yield np.array(numbers, dtype=np.int64), station, day, count, stop
        if stop:
            return


def _record_cells(rows: list[list[str]]) -> tuple[np.ndarray, np.ndarray]:
    """The day ordinals and counts of records' date and count cells, read
    by ``_cells`` from the lines ``,date,count`` after 16 bytes of
    padding."""
    cells = [(date.encode(), count.encode()) for _, date, count in rows]
    data = b"\n" * 16 + b"".join([b",%s,%s\n" % cell for cell in cells])
    sizes = np.array([(len(date), len(count)) for date, count in cells],
                     np.int64).reshape(-1, 2)
    end = 15 + np.cumsum(sizes.sum(axis=1) + 3)
    last = end - sizes[:, 1] - 1
    return _cells(_words(data), last - sizes[:, 0] - 1, last, end)


def parse_counts_csv(data: bytes) -> Counts:
    """Parse counts CSV bytes into columns, rows sorted by (station, day).

    The grammar of a row's cells, on every path: a date is ``YYYY-MM-DD``
    in ASCII digits naming a real day (years 0001 to 9999), and a count is
    1 to 15 ASCII digits, leading zeros allowed. A sum of 366 such counts
    fits int64.

    Raises ``ParseError`` naming the offending line for a bad header, a
    date or count outside that grammar, a duplicate (station, date)
    observation, or text the csv module refuses. Lines are records, blank
    ones included, and the first line at fault is named.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"counts payload is not UTF-8: {exc}") from exc
    codes: dict[str, int] = {}
    header, batches = _counts_batches(data, text, codes)
    if header is None:
        raise ParseError("line 1: empty counts payload")
    if tuple(header) != COUNTS_CSV_HEADER:
        raise ParseError(f"line 1: bad counts header {tuple(header)}")

    columns: list[tuple[np.ndarray, ...]] = []
    stop = None
    for numbers, station, day, count, stop in batches:
        columns.append((station, day, count, numbers))
        if (day == 0).any() or (count < 0).any():
            break  # a later line cannot be the first at fault

    station, day, count, numbers = (
        np.concatenate([c[k] for c in columns]) if columns else np.zeros(0, np.int64)
        for k in range(4)
    )
    counts, repeat = frames.sorted_counts(tuple(codes), station, day, count)
    # Rows are in line order, so the first row at fault has the lowest line.
    row = min(np.flatnonzero((day == 0) | (count < 0))[:1].tolist()
              + ([repeat] if repeat is not None else []), default=None)
    if stop is not None and (row is None or stop[0] < numbers[row]):
        raise stop[1]
    if row is None:
        return counts
    lineno = int(numbers[row])
    if day[row] and count[row] >= 0:
        raise ParseError(f"line {lineno}: duplicate observation for "
                         f"({counts.station_ids[station[row]]}, "
                         f"{dt.date.fromordinal(int(day[row]))})")
    _, date_text, count_text = next(itertools.islice(csv.reader(io.StringIO(text)),
                                                     lineno - 1, None))
    if not day[row]:
        raise ParseError(f"line {lineno}: bad date {date_text!r}")
    raise ParseError(f"line {lineno}: bad count {count_text!r}")


def counts_to_csv_text(parts: Iterable[Counts]) -> str:
    """The counts CSV of ``parts``, one after another, rows in their order,
    which ``parse_counts_csv`` reads back. Station ids are quoted by
    ``frames._csv_field``."""
    iso: dict[int, str] = {}
    texts = [",".join(COUNTS_CSV_HEADER) + "\n"]
    for counts in parts:
        days = counts.day.tolist()
        for day in set(days).difference(iso):
            iso[day] = dt.date.fromordinal(day).isoformat()
        ids = [frames._csv_field(s) for s in counts.station_ids]
        # One text per part: the lines of all parts are never held at once.
        texts.append("".join([f"{ids[k]},{iso[d]},{c}\n" for k, d, c in
                              zip(counts.station.tolist(), days, counts.count.tolist())]))
    return "".join(texts)


def fetch_counts(
    config: SourceConfig,
    station_id: str,
    start: dt.date,
    end: dt.date,
    transport: Transport,
    cache: ResponseCache | None = None,
) -> Counts:
    """Fetch (or replay) the counts for one station over a date range.

    A warm cache entry for the request URL is served with no transport
    call; a corrupt entry is evicted and refetched. Live responses are
    stored verbatim before parsing, so parsing is deterministic from bytes.
    """
    if start > end:
        raise ValueError("range start is after range end")
    cache = cache or ResponseCache(config.cache_dir)
    # Keyed on the request itself, so that another source's bytes are never served.
    url = config.counts_url_template.format(
        station=station_id, start=start.isoformat(), end=end.isoformat()
    )
    try:
        body = cache.load(url)
    except CacheCorrupt:
        cache.evict(url)
        body = None
    if body is None:
        body = _get_with_retries(transport, url, config.retries)
        cache.store(url, body)
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
    mapping each URL to a relative response file, which is read only when
    its URL is requested."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    return FixtureTransport({url: directory / relpath for url, relpath in manifest.items()})


# --- census tables -----------------------------------------------------------

@dataclass(frozen=True)
class AcsSchema:
    """Canonical category orders for the census tables, shipped versioned.

    The table layouts only fix the number of categories; their labels and
    order are declared once here so parsing is unambiguous. The bundled
    schema declares 10 income categories, 9 education levels and at least
    one age bracket, as the profile averages assume.
    """

    version: int
    income_categories: tuple[str, ...]
    education_levels: tuple[str, ...]
    age_brackets: tuple[tuple[str, float], ...]  # (label, representative level)

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
        # A total past the largest double is inf; the profile built from it
        # is refused by name (InvalidProfile), so numpy need not warn.
        with np.errstate(over="ignore"):
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
