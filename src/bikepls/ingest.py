"""External-data boundary: count fetching with a verbatim-response cache,
counts CSV parsing into columns, and census aggregation per county set.

All network access goes through an injectable transport so the entire
pipeline (and test suite) runs offline against recorded fixtures.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import hashlib
import io
import itertools
import json
import os
import re
import threading
import time
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


_PACK_NAME = re.compile(r"([0-9]+)-[0-9]+-[0-9]+\.pack")


class ResponseCache:
    """Verbatim response store, keyed by request URL and kept in packs.

    A pack is one file, ``<time_ns>-<pid>-<thread>.pack``: a line with its
    entry count, one index line per entry (``<key sha256> <body sha256>
    <length>``), then the bodies in index order. It is written to a
    ``.tmp`` file and renamed into place, so a reader in any thread or
    process sees a whole pack or none, and takes no lock. A later pack
    shadows an earlier one for the same key.

    The cache reads every pack's index when it is made, and a body only
    when it is loaded; after that it sees its own stores, not packs that
    other processes write. No other file is read: not a ``.tmp`` file, nor
    the older layouts' one file per entry. Staleness is the caller's policy;
    the cache only guarantees integrity (a body that fails its checksum
    surfaces as ``CacheCorrupt``).
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # Key sha256 -> (pack, offset, length, body sha256), from the newest pack.
        self._entries: dict[str, tuple[str, int, int, str]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        matches = map(_PACK_NAME.fullmatch, os.listdir(self.directory))
        packs = sorted((int(match[1]), match[0]) for match in matches if match)
        for _, name in packs:
            self._read_index(self.directory / name)
        # A pack written here sorts after every pack read.
        self._newest = packs[-1][0] if packs else 0

    def _read_index(self, path: Path) -> None:
        """Index the entries of one pack; a pack whose index does not parse,
        or gives a body longer than the pack, serves nothing."""
        entries = []
        try:
            with open(path, "rb") as f:
                size = os.fstat(f.fileno()).st_size
                for _ in range(int(f.readline())):
                    key, checksum, length = f.readline().split()
                    if not length.isdigit() or int(length) > size:
                        raise ValueError(f"bad length {length!r}")
                    entries.append((key.decode(), checksum.decode(), int(length)))
                offset = f.tell()
        except (OSError, ValueError):
            return
        for key, checksum, length in entries:
            self._entries[key] = (str(path), offset, length, checksum)
            offset += length

    def load(self, key: str) -> bytes | None:
        """Return cached bytes, None on miss, ``CacheCorrupt`` on damage."""
        entry = self._entries.get(hashlib.sha256(key.encode("utf-8")).hexdigest())
        if entry is None:
            return None
        path, offset, length, checksum = entry
        try:
            with open(path, "rb", buffering=0) as f:
                f.seek(offset)
                body = f.read(length)
        except FileNotFoundError:
            return None
        if hashlib.sha256(body).hexdigest() != checksum:
            raise CacheCorrupt(f"checksum mismatch for cache key {key!r}")
        return body

    def store(self, key: str, body: bytes) -> None:
        """Keep ``body`` under ``key``: in this thread's open ``batch``, or
        else at once, as a pack of one entry."""
        batch = getattr(self._local, "batch", None)
        if batch is None:
            self._write_pack([(key, body)])
        else:
            batch.append((key, body))

    @contextlib.contextmanager
    def batch(self) -> Iterator[None]:
        """Hold this thread's stores and write them as one pack when the
        block ends, also when it ends by an exception."""
        self._local.batch = entries = []
        try:
            yield
        finally:
            self._local.batch = None
            if entries:
                self._write_pack(entries)

    def _write_pack(self, entries: list[tuple[str, bytes]]) -> None:
        index = [(hashlib.sha256(key.encode("utf-8")).hexdigest(),
                  hashlib.sha256(body).hexdigest(), body) for key, body in entries]
        header = b"%d\n" % len(index) + b"".join(
            [b"%s %s %d\n" % (key.encode(), checksum.encode(), len(body))
             for key, checksum, body in index])
        # One writer at a time, so that this cache's entries come from the
        # pack that sorts last, as they would for a cache made afterwards.
        with self._lock:
            stamp = self._newest = max(time.time_ns(), self._newest + 1)
            # A name no other thread or process writes to.
            path = self.directory / f"{stamp}-{os.getpid()}-{threading.get_ident()}.pack"
            temp = path.with_name(path.name + ".tmp")
            with open(temp, "wb") as f:
                f.write(header)
                f.writelines(body for _, _, body in index)
            os.replace(temp, path)
            offset = len(header)
            for key, checksum, body in index:
                self._entries[key] = (str(path), offset, len(body), checksum)
                offset += len(body)


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
    """Fetch (or replay) the counts of each station over a date range.

    A warm cache entry for the request URL is served with no transport
    call; a corrupt one is fetched again. Only the transport calls run on
    a pool of at most ``config.parallelism`` threads. The responses they
    return are stored verbatim, as one pack, before any is parsed, so
    parsing is deterministic from bytes; they are stored even when another
    station's call fails, whose error is then raised. A response that does
    not parse, or holds no rows for its station, is a ``ParseError`` that
    names its URL.
    """
    if start > end:
        raise ValueError("range start is after range end")
    cache = cache or ResponseCache(config.cache_dir)
    # Keyed on the request itself, so that another source's bytes are never served.
    urls = {station: config.counts_url_template.format(
        station=station, start=start.isoformat(), end=end.isoformat()) for station in station_ids}
    bodies: dict[str, bytes | None] = {}
    for station, url in urls.items():
        try:
            bodies[station] = cache.load(url)
        except CacheCorrupt:
            bodies[station] = None
    missing = [station for station, body in bodies.items() if body is None]
    if missing:
        with cache.batch(), ThreadPoolExecutor(min(config.parallelism, len(missing))) as pool:
            futures = [pool.submit(_get_with_retries, transport, urls[station], config.retries)
                       for station in missing]
            for station, future in zip(missing, futures):
                if future.exception() is None:
                    bodies[station] = future.result()
                    cache.store(urls[station], bodies[station])
            for future in futures:
                if future.exception() is not None:
                    raise future.exception()
    results: dict[str, Counts] = {}
    for station, url in urls.items():
        try:
            counts = parse_counts_csv(bodies.pop(station))
            if station not in counts.station_ids:
                raise ParseError(f"response contains no rows for station {station!r}")
        except ParseError as exc:
            raise ParseError(f"{url}: {exc}") from None
        results[station] = counts.only(station)
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
