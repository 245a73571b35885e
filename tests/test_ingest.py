import calendar
import csv
import datetime as dt
import hashlib
import io
import itertools
import json
import random
import re
import sys
import threading
from typing import Iterator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikepls import frames, ingest
from bikepls.cli import main
from bikepls.errors import (
    CacheCorrupt,
    CategoryCountMismatch,
    EmptyHouseholds,
    InvalidProfile,
    MissingCounty,
    NetworkError,
    ParseError,
    ZeroFemale,
)
from bikepls.ingest import (
    AcsSchema,
    FixtureTransport,
    ResponseCache,
    SourceConfig,
    census_profiles,
    fetch_many,
    fixture_transport_from_dir,
    load_acs_table_csv,
    load_population_csv,
    parse_counts_csv,
)
from conftest import pack_index, packs


class RecordingTransport:
    """Wraps a transport and counts the requests that reach it."""

    def __init__(self, inner):
        self.inner = inner
        self.requests: list[str] = []

    def get(self, url: str) -> bytes:
        self.requests.append(url)
        return self.inner.get(url)

    @property
    def call_count(self) -> int:
        return len(self.requests)


def oracle_records(text: str) -> Iterator[list[str]]:
    """``csv.reader``'s records of ``text``; text it refuses is a
    ``ParseError`` naming its record."""
    reader = csv.reader(io.StringIO(text))
    for number in itertools.count(1):
        try:
            yield next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(f"line {number}: {exc}") from None


# The cell grammar, stated here apart from the parser: a date is
# ``YYYY-MM-DD`` in ASCII digits naming a real day, a count 1 to 15 ASCII
# digits.
DATE_TEXT = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})")
COUNT_TEXT = re.compile(r"[0-9]{1,15}")


def grammar_date(text: str) -> dt.date | None:
    """The day a date cell names, or None when it is outside the grammar."""
    match = DATE_TEXT.fullmatch(text)
    if match is None:
        return None
    year, month, day = (int(part) for part in match.groups())
    if year < 1 or not 1 <= month <= 12 or not 1 <= day <= calendar.monthrange(year, month)[1]:
        return None
    return dt.date(year, month, day)


def parse_counts_oracle(data: bytes) -> dict[str, tuple[tuple[dt.date, int], ...]]:
    """A row-by-row parser of the same grammar: one date-sorted series per
    station, stations in order of first appearance."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"counts payload is not UTF-8: {exc}") from exc
    reader = oracle_records(text)
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise ParseError("line 1: empty counts payload") from None
    if header != frames.COUNTS_CSV_HEADER:
        raise ParseError(f"line 1: bad counts header {header}")
    rows: dict[str, dict[dt.date, int]] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(f"line {lineno}: expected 3 fields, got {len(row)}")
        station, date_text, count_text = row
        date = grammar_date(date_text)
        if date is None:
            raise ParseError(f"line {lineno}: bad date {date_text!r}")
        if not COUNT_TEXT.fullmatch(count_text):
            raise ParseError(f"line {lineno}: bad count {count_text!r}")
        per_station = rows.setdefault(station, {})
        if date in per_station:
            raise ParseError(f"line {lineno}: duplicate observation for ({station}, {date})")
        per_station[date] = int(count_text)
    return {station: tuple(sorted(dates.items())) for station, dates in rows.items()}


def as_series(counts: frames.Counts) -> dict[str, tuple[tuple[dt.date, int], ...]]:
    """Columns back as the oracle's per-station series, checking on the way
    that rows are sorted by (station, day) with no pair twice."""
    keys = counts.keys()
    assert (np.diff(keys) > 0).all()
    out: dict[str, list] = {station: [] for station in counts.station_ids}
    for k, day, count in zip(counts.station.tolist(), counts.day.tolist(),
                             counts.count.tolist()):
        out[counts.station_ids[k]].append((dt.date.fromordinal(day), count))
    return {station: tuple(rows) for station, rows in out.items()}


def outcome(parse, data: bytes):
    """What a parser makes of ``data``: its series, or its error."""
    try:
        result = parse(data)
    except ParseError as exc:
        return type(exc).__name__, str(exc)
    return "ok", as_series(result) if isinstance(result, frames.Counts) else result


COUNTS = b"station_id,date,count\nA,2020-01-02,5\nB,2020-01-01,7\nA,2020-01-01,3\n"


class TestParseCountsCsv:
    def test_three_rows_one_station(self):
        data = b"station_id,date,count\nA,2020-01-01,1\nA,2020-01-02,2\nA,2020-01-03,3\n"
        counts = parse_counts_csv(data)
        assert counts.station_ids == ("A",)
        assert len(counts) == 3

    def test_interleaved_stations_sorted(self):
        series = as_series(parse_counts_csv(COUNTS))
        assert set(series) == {"A", "B"}
        dates = [date for date, _ in series["A"]]
        assert dates == sorted(dates)

    def test_duplicate_observation(self):
        data = COUNTS + b"A,2020-01-01,9\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_counts_csv(data)

    def test_header_only(self):
        counts = parse_counts_csv(b"station_id,date,count\n")
        assert counts.station_ids == () and len(counts) == 0

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_counts_csv(b"id,when,how_many\n")

    def test_negative_count_names_line(self):
        data = b"station_id,date,count\nA,2020-01-01,3\nA,2020-01-02,-4\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_counts_csv(data)

    def test_bad_date(self):
        with pytest.raises(ParseError, match="bad date"):
            parse_counts_csv(b"station_id,date,count\nA,01/02/2020,3\n")

    def test_non_integer_count(self):
        with pytest.raises(ParseError, match="bad count"):
            parse_counts_csv(b"station_id,date,count\nA,2020-01-01,3.5\n")

    def test_not_utf8(self):
        with pytest.raises(ParseError, match="UTF-8"):
            parse_counts_csv(b"\xff\xfe\x00bad")

    def test_deterministic(self):
        assert as_series(parse_counts_csv(COUNTS)) == as_series(parse_counts_csv(COUNTS))


HEADER = "station_id,date,count\n"

# Payloads the oracle rejects or accepts, each with a twist the fast split
# must not miss: quoting, blank lines, carriage returns, widths, odd cells.
EDGE_PAYLOADS = [
    "",
    "\n",
    "station_id,date\n",
    '"station_id","date","count"\nA,2020-01-01,1\n',
    HEADER + "\n\nA,2020-01-01,1\n\nA,2020-01-02,2\n",
    HEADER + "A,2020-01-01,1\n\n\nB,2020-01-01\n",
    HEADER + "A,2020-01-01,1\nB,2020-01-01,2,3\n",
    HEADER + "A,2020-01-01\nA,bad,1\n",
    HEADER + "A,bad,1\nA,2020-01-01\n",
    HEADER + " \n",
    HEADER + ",,\n",
    HEADER + '"a,b",2020-01-01,1\n"a,b",2020-01-02,2\n',
    HEADER + '"x""y",2020-01-01,1\n',
    HEADER + '""\n',
    HEADER + '"multi\nline",2020-01-01,1\nA,2020-01-01,x\n',
    HEADER + 'A,"x,2020-01-01",1\nA,"2020-01-02\n",1\n',
    HEADER.replace("\n", "\r\n") + "A,2020-01-01,1\r\nA,2020-01-02,2\r\n",
    HEADER + "A,2020-01-01,1\rA,2020-01-02,2\n",
    HEADER + "A,bad,1\nA,2020-01-01,1\rA,2020-01-02,2\n",
    HEADER + "A,2020-01-01,1\nA,2020-01-01\rA,2020-01-02,2\n",
    HEADER + "A,2020-02-29,1\nA,2019-02-29,1\n",
    HEADER + "A,20200105,1\nA,2020-01-05,2\n",
    HEADER + "A,2020-01-05,1\nA, 2020-01-05,2\n",
    HEADER + "A,2020-1-5,1\n",
    HEADER + "A,2020-01-05, 7 \nA,2020-01-06,+8\nA,2020-01-07,1_000\n",
    HEADER + "A,2020-01-05,-0\nA,2020-01-06,-3\n",
    HEADER + "A,2020-01-05,99999999999999999999\nA,2020-01-06,1\n",
    HEADER + "A,2020-01-05,-99999999999999999999\n",
    HEADER + "A,2020-01-05,\n",
    HEADER + "A,2020-01-05,1\nB,2020-01-05,1\nA,2020-01-05,2\nA,bad,1\n",
    HEADER + "A,bad,1\nA,2020-01-05,1\nA,2020-01-05,2\n",
    HEADER + "Zürich,2020-01-05,1\n東京,2020-01-05,2\n",
    HEADER + "A,2020-01-05,1",
    HEADER + "A,2020-01-05,1\x00\n",
]


class TestAgainstRowByRowOracle:
    """The columnar parser accepts, rejects and names lines as a
    row-by-row parser of the same grammar."""

    @pytest.mark.parametrize("text", EDGE_PAYLOADS)
    def test_edge_payloads(self, text):
        data = text.encode()
        assert outcome(parse_counts_csv, data) == outcome(parse_counts_oracle, data)

    @pytest.mark.parametrize("data", [
        b"\xff\xfe\x00bad",
        COUNTS + b"A,2020-01-01,9\n",
        b"id,when,how_many\n",
        b"station_id,date,count\nA,2020-01-01,3\nA,2020-01-02,-4\n",
        b"station_id,date,count\nA,01/02/2020,3\n",
        b"station_id,date,count\nA,2020-01-01,3.5\n",
        b"station_id,date,count\n",
    ])
    def test_parse_counts_cases(self, data):
        assert outcome(parse_counts_csv, data) == outcome(parse_counts_oracle, data)

    @pytest.mark.parametrize("chunk, batch", [(1 << 20, 1 << 15), (1000, 50)])
    def test_files_over_many_batches(self, monkeypatch, chunk, batch):
        # faults past the first chunk of lines (or batch of records) are named too
        monkeypatch.setattr(ingest, "_COUNTS_CHUNK", chunk)
        monkeypatch.setattr(ingest, "_COUNTS_BATCH", batch)
        rng = random.Random(7)
        days = [dt.date(2020, 1, 1) + dt.timedelta(days=k) for k in range(366)]
        n = 50_000 if chunk > 1000 else 2_000
        rows = [f"s{s},{d},{rng.randrange(500)}" for s in range(n // 366 + 1) for d in days]
        rows = rows[:n]
        rng.shuffle(rows)
        good = HEADER + "\n".join(rows) + "\n"
        assert outcome(parse_counts_csv, good.encode()) == \
            outcome(parse_counts_oracle, good.encode())
        at = int(n * 0.9)
        for fault in ("s1,2020-13-01,1", "s1,2020-01-01,-1", rows[5], "s1,2020-01-01", "",
                      "s1,2020-01-01,x\r"):
            bad = rows[:at] + [fault] + rows[at:]
            data = (HEADER + "\n".join(bad) + "\n").encode()
            assert outcome(parse_counts_csv, data) == outcome(parse_counts_oracle, data)

    def test_field_over_the_csv_limit(self):
        # the csv module refuses a field longer than its limit, on any line
        data = (HEADER + "A,2020-01-01,1\n" + "B" * (csv.field_size_limit() + 1)
                + ",2020-01-01,1\n").encode()
        assert outcome(parse_counts_csv, data) == outcome(parse_counts_oracle, data)
        assert outcome(parse_counts_csv, data) == \
            ("ParseError", f"line 3: field larger than field limit ({csv.field_size_limit()})")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["A", "B", "a,b", 'q"t', " A", "Zürich", ""]),
        st.sampled_from(["2020-01-01", "2020-01-02", "2020-02-29", "2019-02-29",
                         "2018-12-31", "20200101", "2020-1-2", " 2020-01-01", "", "x"]),
        st.sampled_from(["0", "1", "7", "-2", "+3", " 4", "1_0", "2.5", "", "x",
                         "99999999999999999999"]),
        st.sampled_from(["row", "row", "row", "row", "blank", "short", "long"]),
    ), max_size=30), st.sampled_from(["\n", "\r\n"]), st.booleans())
    def test_random_payloads(self, rows, newline, quote_all):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator=newline,
                            quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL)
        writer.writerow(frames.COUNTS_CSV_HEADER)
        for station, date, count, shape in rows:
            if shape == "blank":
                buf.write(newline)
            else:
                cells = {"row": [station, date, count], "short": [station, date],
                         "long": [station, date, count, count]}[shape]
                writer.writerow(cells)
        data = buf.getvalue().encode()
        assert outcome(parse_counts_csv, data) == outcome(parse_counts_oracle, data)


# Cell texts and what the grammar makes of them, written out: the day or
# count they hold, or the fault they end in.
GRAMMAR_TABLE = [
    ("date", "2020-02-29", dt.date(2020, 2, 29)),
    ("date", "2019-02-29", "bad date"),
    ("date", "0000-01-01", "bad date"),
    ("date", "20200101", "bad date"),
    ("date", "2020-W01-3", "bad date"),
    ("count", "999999999999999", 999_999_999_999_999),
    ("count", "000000000000007", 7),
    ("count", "1000000000000000", "bad count"),
    ("count", "٣", "bad count"),
    ("count", "５", "bad count"),
    ("count", "+5", "bad count"),
    ("count", " 5", "bad count"),
    ("count", "5_000", "bad count"),
    ("count", "-0", "bad count"),
    ("count", "-3", "bad count"),
]


def grammar_payload(cell: str, text: str, station: str = "A") -> bytes:
    """A counts file whose line 3 holds ``text`` as its date or count."""
    date, count = (text, "1") if cell == "date" else ("2020-02-29", text)
    return f"{HEADER}A,2020-01-01,1\n{station},{date},{count}\n".encode()


class TestGrammar:
    """Every path reads a cell by the one grammar, whatever the Python."""

    @pytest.mark.parametrize("station", ["B", '"B"'], ids=["bytes", "csv-reader"])
    @pytest.mark.parametrize("cell, text, want", GRAMMAR_TABLE)
    def test_cell(self, cell, text, want, station):
        data = grammar_payload(cell, text, station)
        if isinstance(want, str):
            assert outcome(parse_counts_csv, data) == ("ParseError", f"line 3: {want} {text!r}")
        else:
            counts = parse_counts_csv(data)
            got = dt.date.fromordinal(counts.day[1]) if cell == "date" else counts.count[1]
            assert counts.count.dtype == np.int64 and got == want

    @pytest.mark.parametrize("cell, text, want",
                             [case for case in GRAMMAR_TABLE if isinstance(case[2], str)])
    def test_bad_cell_through_the_cli(self, demo_config, tmp_path, capsys, cell, text, want):
        counts = tmp_path / "counts.csv"
        counts.write_bytes(grammar_payload(cell, text))
        assert main(["--config", str(demo_config), "--output-dir", str(tmp_path / "out"),
                     "derive", "--counts-csv", str(counts)]) == 2
        assert capsys.readouterr().err == f"error: {counts}: line 3: {want} {text!r}\n"


# Cells in the grammar (``YYYY-MM-DD`` naming a real day, 1 to 15 ASCII
# digits) and odd ones around it, which are faults on every path. Equal
# days make duplicates.
BYTE_PATH_IDS = ["A", "B", "", "zbcdefg", "abcdefg", "xabcdefg", "abcdefgh", "1-station-0001",
                 "2-station-0001", "xy0123456789", "0123456789", "Zürich", "東京", "a b"]
PLAIN_DATES = st.sampled_from(["2020-01-01", "2020-02-29", "2020-12-31", "0001-01-01",
                               "9999-12-31"]) \
    | st.dates(dt.date(1, 1, 1), dt.date(9999, 12, 31)).map(dt.date.isoformat)
ODD_DATES = st.sampled_from([
    "20200101", "2020-W01-3", "20200229", "2019-02-29", "2100-02-29", "2020-04-31",
    "2020-13-01", "2020-00-10", "2020-19-01", "2020-10-00", "2020-10-32", "0000-01-01",
    "2020-1-5", " 2020-01-01", "2020-01-01 ", "2020/01/01", "２０２０-01-01", "2020-01-0١",
    "2020-01-01x", "x2020-01-01", "12020-01-01", "", "x"])
PLAIN_COUNTS = st.integers(0, 10**15 - 1).map(str) | st.integers(0, 999).map("{:05d}".format)
ODD_COUNTS = st.sampled_from(["+5", " 5", "5 ", "5_000", "-0", "-3", "", "x", "1.5", "٣", "５",
                              "0" * 16, "1" * 16, "9" * 20, "1e3"])


class TestBytePath:
    """Lines decoded from bytes give the row-by-row parser's columns,
    first faulty line and message, as do the same lines with every id
    quoted (read by ``csv.reader``) and with ``\\r\\n`` line ends."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from(BYTE_PATH_IDS), PLAIN_DATES | ODD_DATES,
                                   PLAIN_COUNTS | ODD_COUNTS), max_size=40),
           grouped=st.booleans(), final_newline=st.booleans(),
           chunk=st.sampled_from([48, 1 << 20]))
    def test_mixed_plain_and_odd_cells(self, rows, grouped, final_newline, chunk):
        if grouped:
            rows = sorted(rows, key=lambda row: row[0])
        end = "\n" if final_newline else ""
        text = HEADER + "\n".join(map(",".join, rows)) + end
        quoted = HEADER + "\n".join(f'"{s}",{d},{c}' for s, d, c in rows) + end
        data = text.encode()
        with mock.patch.object(ingest, "_COUNTS_CHUNK", chunk):
            want = outcome(parse_counts_oracle, data)
            assert outcome(parse_counts_csv, data) == want
            assert outcome(parse_counts_csv, quoted.encode()) == want
            assert outcome(parse_counts_csv, data.replace(b"\n", b"\r\n")) == want

    @pytest.mark.parametrize("chunk", [64, 1 << 20])
    @pytest.mark.parametrize("grouped", [True, False])
    def test_grouped_and_interleaved_stations(self, monkeypatch, chunk, grouped):
        monkeypatch.setattr(ingest, "_COUNTS_CHUNK", chunk)
        days = [dt.date(2020, 1, 1) + dt.timedelta(days=k) for k in range(40)]
        cells = [(s, d) for s in BYTE_PATH_IDS for d in days] if grouped \
            else [(s, d) for d in days for s in BYTE_PATH_IDS]
        data = (HEADER + "".join(f"{s},{d},{k}\n" for k, (s, d) in enumerate(cells))).encode()
        counts = parse_counts_csv(data)
        assert counts.station_ids == tuple(BYTE_PATH_IDS)
        assert as_series(counts) == parse_counts_oracle(data)

    @pytest.mark.parametrize("year", [1, 4, 100, 1600, 1900, 2000, 2019, 2020, 9999])
    def test_every_month_and_day_text(self, year):
        # every month and day text up to 21 and 32, and some past them: the
        # real days parse to their ordinals, every other text is a bad date
        real = []
        for m, d in itertools.product([*range(22), 29, 31, 99], [*range(33), 39, 99]):
            try:
                real.append(dt.date(year, m, d))
            except ValueError:
                text = f"{year:04d}-{m:02d}-{d:02d}"
                data = f"{HEADER}A,{text},1\n".encode()
                assert outcome(parse_counts_csv, data) == \
                    ("ParseError", f"line 2: bad date {text!r}")
        data = (HEADER + "".join(f"A,{d},1\n" for d in real)).encode()
        assert parse_counts_csv(data).day.tolist() == [d.toordinal() for d in real]

    def test_month_table(self):
        # every month of the years 1 to 9999 against the calendar module
        for year in range(10000):
            for month in range(20):
                index = 20 * year + month
                if year and 1 <= month <= 12:
                    assert ingest._DAYS_BEFORE[index] + 1 == dt.date(year, month, 1).toordinal()
                    assert ingest._MONTH_DAYS[index] == calendar.monthrange(year, month)[1]
                else:
                    assert ingest._MONTH_DAYS[index] == 0


class TestCountsWriter:
    """``counts_to_csv_text`` writes what ``parse_counts_csv`` reads
    back, quoting as ``csv.writer`` does."""

    @settings(max_examples=200, deadline=None)
    @given(ids=st.lists(st.text(st.characters(blacklist_categories=("Cc", "Cs"))
                                | st.sampled_from(',"'), max_size=6),
                        min_size=1, max_size=5, unique=True),
           rows=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 1000),
                                   st.integers(0, 10**6)), max_size=40))
    def test_parse_inverts_write(self, ids, rows):
        first = dt.date(2018, 1, 1).toordinal()
        cells = {(k % len(ids), first + day): count for k, day, count in rows}
        for k in range(len(ids)):  # the parser keeps only ids that have a row
            cells.setdefault((k, first), 1)
        station, day, count = (np.array(column, dtype=np.int64) for column in
                               zip(*((k, d, c) for (k, d), c in cells.items())))
        counts, _ = frames.sorted_counts(ids, station, day, count)
        text = ingest.counts_to_csv_text([counts])
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [frames.COUNTS_CSV_HEADER] + [
                [ids[k], dt.date.fromordinal(d).isoformat(), c]
                for k, d, c in zip(counts.station.tolist(), counts.day.tolist(),
                                   counts.count.tolist())])
        assert text == buf.getvalue()
        back = parse_counts_csv(text.encode())
        assert back.station_ids == counts.station_ids
        for column in ("station", "day", "count"):
            got, want = getattr(back, column), getattr(counts, column)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()


URL_TEMPLATE = "https://example.test/counts?station={station}&start={start}&end={end}"
RANGE = (dt.date(2020, 1, 1), dt.date(2020, 1, 31))


def _config(tmp_path, **kwargs):
    return SourceConfig(
        counts_url_template=URL_TEMPLATE,
        cache_dir=str(tmp_path / "cache"),
        **kwargs,
    )


def _fixture_transport():
    url = URL_TEMPLATE.format(station="A", start=RANGE[0], end=RANGE[1])
    return RecordingTransport(FixtureTransport({url: COUNTS}))


def fetch_one(config, station, transport, cache=None):
    return fetch_many(config, [station], *RANGE, transport, cache)[station]


class TestFetchCounts:
    def test_parses_fixture_response(self, tmp_path):
        transport = _fixture_transport()
        series = fetch_one(_config(tmp_path), "A", transport)
        assert len(series) == 2
        assert transport.call_count == 1

    def test_second_call_served_from_cache(self, tmp_path):
        transport = _fixture_transport()
        config = _config(tmp_path)
        first = fetch_one(config, "A", transport)
        second = fetch_one(config, "A", transport)
        assert transport.call_count == 1
        assert as_series(first) == as_series(second)

    def test_corrupt_cache_entry_refetched(self, tmp_path):
        transport = _fixture_transport()
        config = _config(tmp_path)
        cache = ResponseCache(config.cache_dir)
        fetch_one(config, "A", transport, cache)
        # damage the stored body, keeping its index line
        packs = list(cache.directory.iterdir())
        assert len(packs) == 1
        packs[0].write_bytes(packs[0].read_bytes()[:-7] + b"garbage")
        series = fetch_one(config, "A", transport, cache)
        assert transport.call_count == 2
        assert len(series) == 2

    def test_cache_key_is_the_request_url(self, tmp_path):
        # a new URL template is a new source: its rows, not the old ones
        config = _config(tmp_path)
        other = SourceConfig(counts_url_template=URL_TEMPLATE.replace("example", "other"),
                             cache_dir=config.cache_dir)
        url = other.counts_url_template.format(station="A", start=RANGE[0], end=RANGE[1])
        body = b"station_id,date,count\nA,2020-01-09,11\n"
        fetch_one(config, "A", _fixture_transport())
        series = fetch_one(other, "A", FixtureTransport({url: body}))
        assert as_series(series) == {"A": ((dt.date(2020, 1, 9), 11),)}

    def test_warm_cache_equals_cold_plus_live(self, tmp_path):
        config = _config(tmp_path)
        cold = fetch_one(config, "A", _fixture_transport())
        warm = fetch_one(config, "A", _fixture_transport())
        assert as_series(cold) == as_series(warm)
        assert as_series(cold) == {"A": parse_counts_oracle(COUNTS)["A"]}

    def test_network_error_after_retries(self, tmp_path):
        class FailingTransport:
            def __init__(self):
                self.calls = 0

            def get(self, url):
                self.calls += 1
                raise NetworkError("connection refused")

        transport = FailingTransport()
        config = _config(tmp_path, retries=2)
        with pytest.raises(NetworkError, match="after 3 attempts"):
            fetch_one(config, "A", transport)
        assert transport.calls == 3

    def test_missing_station_in_response(self, tmp_path):
        url = URL_TEMPLATE.format(station="Z", start=RANGE[0], end=RANGE[1])
        transport = FixtureTransport({url: COUNTS})
        with pytest.raises(ParseError, match=f"^{re.escape(url)}: response contains no rows "
                                             "for station 'Z'$"):
            fetch_one(_config(tmp_path), "Z", transport)

    def test_inverted_range(self, tmp_path):
        with pytest.raises(ValueError):
            fetch_many(_config(tmp_path), ["A"], RANGE[1], RANGE[0], _fixture_transport())

    def test_fetch_many_bounded_parallelism(self, tmp_path):
        responses = {}
        for station in ("A", "B", "C", "D", "E"):
            url = URL_TEMPLATE.format(station=station, start=RANGE[0], end=RANGE[1])
            responses[url] = (
                f"station_id,date,count\n{station},2020-01-05,4\n".encode()
            )
        transport = RecordingTransport(FixtureTransport(responses))
        config = _config(tmp_path, parallelism=3)
        series = fetch_many(config, ["A", "B", "C", "D", "E"], *RANGE, transport)
        assert set(series) == {"A", "B", "C", "D", "E"}
        assert transport.call_count == 5

    def test_warm_fetch_starts_no_thread(self, tmp_path):
        config = _config(tmp_path)
        fetch_one(config, "A", _fixture_transport())
        with mock.patch.object(ingest, "ThreadPoolExecutor") as pool:
            fetch_one(config, "A", _fixture_transport())
        pool.assert_not_called()

    def test_fixture_transport_from_dir(self, tmp_path):
        (tmp_path / "resp.csv").write_bytes(COUNTS)
        (tmp_path / "manifest.json").write_text(
            json.dumps({"https://example.test/x": "resp.csv",
                        "https://example.test/gone": "gone.csv"})
        )
        # a response file is read when its URL is requested, not before
        transport = fixture_transport_from_dir(tmp_path)
        assert transport.get("https://example.test/x") == COUNTS
        with pytest.raises(NetworkError):
            transport.get("https://example.test/other")
        with pytest.raises(FileNotFoundError, match="gone.csv"):
            transport.get("https://example.test/gone")


URL = URL_TEMPLATE.format(station="A", start=RANGE[0], end=RANGE[1])


def key_hash(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()


def pack_bytes(entries: list[tuple[str, bytes]]) -> bytes:
    return b"".join([b"%d\n" % len(entries)] + [
        f"{key_hash(key)} {hashlib.sha256(body).hexdigest()} {len(body)}\n".encode()
        for key, body in entries] + [body for _, body in entries])


def three_station_transport():
    return RecordingTransport(FixtureTransport({
        URL_TEMPLATE.format(station=station, start=RANGE[0], end=RANGE[1]):
            COUNTS if station == "A" else
            f"station_id,date,count\n{station},2020-01-05,4\n".encode()
        for station in ("A", "B", "C")}))


class TestResponseCache:
    def test_pack_is_index_then_bodies(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.store(URL, COUNTS)
        [path] = tmp_path.iterdir()
        assert re.fullmatch(r"[0-9]+-[0-9]+-[0-9]+\.pack", path.name)
        assert path.read_bytes() == pack_bytes([(URL, COUNTS)])
        assert cache.load(URL) == COUNTS
        assert cache.load(URL + "&other") is None
        assert ResponseCache(tmp_path).load(URL) == COUNTS

    def test_batch_is_one_pack_and_a_later_pack_shadows(self, tmp_path):
        cache = ResponseCache(tmp_path)
        other = b"station_id,date,count\nA,2020-01-09,11\n"
        with cache.batch():
            cache.store(URL, other)
            cache.store(URL + "&b", COUNTS)
            assert list(tmp_path.iterdir()) == []
        [first] = packs(tmp_path)
        assert first.read_bytes() == pack_bytes([(URL, other), (URL + "&b", COUNTS)])
        cache.store(URL, COUNTS)
        assert [p.name for p in packs(tmp_path)][0] == first.name
        for reader in (cache, ResponseCache(tmp_path)):
            assert reader.load(URL) == COUNTS
            assert reader.load(URL + "&b") == COUNTS

    @pytest.mark.parametrize("layout", ["checksum-line", "sidecar"])
    def test_old_layout_entry_refetched(self, tmp_path, layout):
        # one file per entry, named by the key's sha256, as the cache once
        # stored them: a checksum line then the body, or a body file plus
        # a checksum sidecar
        config = _config(tmp_path)
        directory = tmp_path / "cache"
        directory.mkdir()
        old_body = COUNTS.replace(b"5", b"6")
        old_checksum = hashlib.sha256(old_body).hexdigest()
        entry = directory / key_hash(URL)
        if layout == "checksum-line":
            entry.write_bytes(old_checksum.encode() + b"\n" + old_body)
        else:
            entry.write_bytes(old_body)
            entry.with_suffix(".meta.json").write_text(json.dumps(
                {"key": URL, "sha256": old_checksum,
                 "fetched_at": "2021-01-01T00:00:00+00:00"}))
        old_files = {p.name: p.read_bytes() for p in directory.iterdir()}
        assert ResponseCache(directory).load(URL) is None
        transport = _fixture_transport()
        series = fetch_one(config, "A", transport)
        assert transport.call_count == 1
        assert as_series(series) == {"A": parse_counts_oracle(COUNTS)["A"]}
        assert ResponseCache(directory).load(URL) == COUNTS
        # the old files are left as they were, and never read
        assert {p.name: p.read_bytes() for p in directory.iterdir()
                if not p.name.endswith(".pack")} == old_files

    @pytest.mark.parametrize("damage", [
        lambda body: body.replace(b"\n", b""),  # no newline
        lambda body: b"",  # the body gone
        lambda body: body[:body.index(b"\n") + 1],  # the header line alone
        lambda body: body[:-1],  # cut short by one byte
        lambda body: body.replace(b"\n", b"\nA,2020-01-03,1\n", 1),  # a row put in
    ], ids=["no-newline", "gone", "header-alone", "one-byte-short", "row-put-in"])
    def test_damaged_entry_is_corrupt_and_refetched(self, tmp_path, damage):
        # A's body is the pack's last, so a damage that changes its length
        # leaves the other bodies where the index puts them
        config = _config(tmp_path)
        transport = three_station_transport()
        fetch_many(config, ["B", "C", "A"], *RANGE, transport)
        [pack] = packs(tmp_path / "cache")
        *_, (key, _, offset, length) = pack_index(pack)
        assert key == key_hash(URL)
        data = pack.read_bytes()
        assert data[offset:] == COUNTS
        pack.write_bytes(data[:offset] + damage(COUNTS))
        cache = ResponseCache(config.cache_dir)
        with pytest.raises(CacheCorrupt):
            cache.load(URL)
        assert [cache.load(URL_TEMPLATE.format(station=s, start=RANGE[0], end=RANGE[1]))
                for s in "BC"] == [f"station_id,date,count\n{s},2020-01-05,4\n".encode()
                                   for s in "BC"]
        series = fetch_many(config, ["B", "C", "A"], *RANGE, transport, cache)
        assert transport.call_count == 4
        assert as_series(series["A"]) == {"A": parse_counts_oracle(COUNTS)["A"]}
        # a newer pack of A alone shadows the damaged body, which stays
        old, new = packs(tmp_path / "cache")
        assert old == pack and old.read_bytes() == data[:offset] + damage(COUNTS)
        assert new.read_bytes() == pack_bytes([(URL, COUNTS)])
        assert ResponseCache(config.cache_dir).load(URL) == COUNTS

    def test_damaged_index_serves_nothing(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.store(URL, COUNTS)
        [pack] = packs(tmp_path)
        data = pack.read_bytes()
        for damaged in (b"x" + data, data[:10], b"2" + data[1:],
                        data.replace(b" %d\n" % len(COUNTS), b" -1\n"),
                        data.replace(b" %d\n" % len(COUNTS), b" %d\n" % 10**15)):
            pack.write_bytes(damaged)
            assert ResponseCache(tmp_path).load(URL) is None

    def test_concurrent_stores_leave_a_whole_entry(self, tmp_path):
        # eight writers of different bodies under one key, and one reader
        # that reads through the writers' cache and through new ones
        cache = ResponseCache(tmp_path)
        bodies = [bytes([65 + k]) * (1 << 16) + b"\n" for k in range(8)]
        start = threading.Barrier(9, timeout=30)
        stop = threading.Event()
        seen: list = []

        def write(body):
            start.wait()
            for _ in range(40):
                cache.store(URL, body)

        def read():
            start.wait()
            while not stop.is_set():
                for reader in (cache, ResponseCache(tmp_path)):
                    try:
                        seen.append(reader.load(URL))
                    except CacheCorrupt as exc:
                        seen.append(exc)

        writers = [threading.Thread(target=write, args=(body,)) for body in bodies]
        reader = threading.Thread(target=read)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in writers + [reader]:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            stop.set()
            reader.join(timeout=60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in writers + [reader])
        assert seen and all(body is None or body in bodies for body in seen)
        assert cache.load(URL) in bodies
        assert ResponseCache(tmp_path).load(URL) in bodies
        assert len(packs(tmp_path)) == 8 * 40 == len(list(tmp_path.iterdir()))

    def test_leftover_temp_file_never_served(self, tmp_path):
        # a writer that stopped before its rename leaves a whole temp file
        other = b"station_id,date,count\nA,2020-01-09,11\n"
        (tmp_path / "1-2-3.pack.tmp").write_bytes(pack_bytes([(URL, other)]))
        cache = ResponseCache(tmp_path)
        assert cache.load(URL) is None
        cache.store(URL, COUNTS)
        assert cache.load(URL) == COUNTS
        assert ResponseCache(tmp_path).load(URL) == COUNTS

    def test_cold_fetch_leaves_one_pack(self, tmp_path):
        stations = [f"S{k}" for k in range(7)]
        urls = {station: URL_TEMPLATE.format(station=station, start=RANGE[0], end=RANGE[1])
                for station in stations}
        transport = FixtureTransport({
            url: f"station_id,date,count\n{station},2020-01-05,4\n".encode()
            for station, url in urls.items()})
        config = _config(tmp_path, parallelism=3)
        fetch_many(config, stations, *RANGE, transport)
        [pack] = list((tmp_path / "cache").iterdir())
        assert pack.name.endswith(".pack")
        assert [key for key, *_ in pack_index(pack)] == [key_hash(urls[s]) for s in stations]

    def test_network_error_keeps_the_other_stations(self, tmp_path):
        stations = ["A", "B", "C", "D", "E"]
        urls = {station: URL_TEMPLATE.format(station=station, start=RANGE[0], end=RANGE[1])
                for station in stations}
        responses = {url: f"station_id,date,count\n{station},2020-01-05,4\n".encode()
                     for station, url in urls.items()}
        broken = dict(responses)
        del broken[urls["B"]]
        config = _config(tmp_path, parallelism=2, retries=0)
        with pytest.raises(NetworkError, match=re.escape(urls["B"])):
            fetch_many(config, stations, *RANGE, FixtureTransport(broken))
        [pack] = packs(tmp_path / "cache")
        assert sorted(key for key, *_ in pack_index(pack)) == \
            sorted(key_hash(urls[s]) for s in "ACDE")
        transport = RecordingTransport(FixtureTransport(responses))
        series = fetch_many(config, stations, *RANGE, transport)
        assert transport.requests == [urls["B"]]
        assert {s: as_series(c) for s, c in series.items()} == \
            {s: {s: ((dt.date(2020, 1, 5), 4),)} for s in stations}


class TestSourceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SourceConfig(counts_url_template="x", timeout_s=0)
        with pytest.raises(ValueError):
            SourceConfig(counts_url_template="x", retries=-1)
        with pytest.raises(ValueError):
            SourceConfig(counts_url_template="x", parallelism=0)


SCHEMA = AcsSchema.bundled()
AGE_LABELS = tuple(label for label, _ in SCHEMA.age_brackets)


def acs_text(rows) -> str:
    return "county,label,value\n" + "".join(f"{c},{label},{v!r}\n" for c, label, v in rows)


def _income_rows(county, values):
    return tuple(
        (county, label, value)
        for label, value in zip(SCHEMA.income_categories, values)
    )


def income_table(rows):
    return load_acs_table_csv(acs_text(rows), "income", SCHEMA.income_categories)


def sums(table, counties):
    """One county set's totals, or its error."""
    totals, errors = table.sum_over([tuple(counties)])
    if errors[0] is not None:
        raise errors[0]
    return totals[0].tolist()


class TestAcsTables:
    def test_single_county_passthrough(self):
        values = [10.0, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        table = income_table(_income_rows("denver", values))
        assert sums(table, ["denver"]) == values

    def test_two_counties_summed(self):
        a = [1.0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        b = [2.0, 3, 0, 0, 0, 0, 0, 0, 0, 0]
        table = income_table(_income_rows("a", a) + _income_rows("b", b))
        assert sums(table, ["a", "b"]) == [3.0, 3, 0, 0, 0, 0, 0, 0, 0, 0]

    def test_summation_order_invariant(self):
        a = [1.0, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        b = [10.0, 9, 8, 7, 6, 5, 4, 3, 2, 1]
        table = income_table(_income_rows("a", a) + _income_rows("b", b))
        assert sums(table, ["a", "b"]) == sums(table, ["b", "a"])

    def test_wrong_category_count(self):
        table = income_table(_income_rows("a", list(range(10)))[:9])
        with pytest.raises(CategoryCountMismatch, match="has 9 categories, expected 10"):
            sums(table, ["a"])

    def test_missing_county(self):
        table = income_table(_income_rows("a", list(range(10))))
        with pytest.raises(MissingCounty, match="county 'nowhere' missing"):
            sums(table, ["a", "nowhere"])

    def test_education_levels(self):
        rows = tuple(
            ("a", label, i) for i, label in enumerate(SCHEMA.education_levels)
        )
        table = load_acs_table_csv(acs_text(rows), "education", SCHEMA.education_levels)
        assert sums(table, ["a"]) == list(range(9))

    def test_age_returns_schema_levels(self):
        rows = tuple((county, label, 10.0) for county in "ab" for label in AGE_LABELS)
        table = load_acs_table_csv(acs_text(rows), "age", AGE_LABELS)
        assert sums(table, ["a"]) == [10.0] * len(SCHEMA.age_brackets)
        # the profile weighs the brackets by the schema's levels
        income = income_table(_income_rows("a", [1.0] * 10))
        education = load_acs_table_csv(
            acs_text(("a", label, 1.0) for label in SCHEMA.education_levels),
            "education", SCHEMA.education_levels)
        [profile] = census_profiles([("a",)], income, education, table, {"a": (1.0, 1.0)},
                                    SCHEMA)
        levels = [level for _, level in SCHEMA.age_brackets]
        assert profile.avg_age == frames.avg_age([10.0] * len(levels), levels)

    def test_raw_table_rejects_negative(self):
        with pytest.raises(ParseError, match=r"^table income line 2: negative number '-1\.0'$"):
            income_table((("a", "under_10k", -1.0),))

    def test_raw_table_rejects_duplicate_label(self):
        with pytest.raises(ParseError, match="^table income line 3: duplicate county 'a', "
                                             "label 'under_10k'$"):
            income_table((("a", "under_10k", 1.0), ("a", "under_10k", 2.0)))

    def test_load_csv(self):
        values = [5.0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
        text = acs_text(_income_rows("a", values)) + "b,under_10k,5\n"
        table = load_acs_table_csv(text, "income", SCHEMA.income_categories)
        # schema order, one row per complete county; the others by label count
        assert table.rows == {"a": 0}
        assert table.values.tolist() == [values]
        assert table.label_counts == {"b": 1}

    def test_load_csv_bad_header(self):
        with pytest.raises(ParseError):
            load_acs_table_csv("c,l,v\na,b,1\n", "income", SCHEMA.income_categories)

    def test_load_csv_bad_value(self):
        with pytest.raises(ParseError, match="^table income line 2: bad number 'many'$"):
            load_acs_table_csv("county,label,value\na,b,many\n", "income",
                               SCHEMA.income_categories)

    @pytest.mark.parametrize("row, message", [
        ("a,b,nan", "bad number 'nan'"),
        ("a,b,-inf", "bad number '-inf'"),
        ("a,b,-3", "negative number '-3'"),
        ("a,b", "expected 3 fields, got 2"),
        ("a,b,1,2", "expected 3 fields, got 4"),
        ("a,under_10k,2", "duplicate county 'a', label 'under_10k'"),
    ])
    def test_bad_row_names_its_line(self, row, message):
        # line 2 is blank: lines are numbered as they stand in the file
        text = f"county,label,value\n\na,under_10k,1\n{row}\n"
        with pytest.raises(ParseError, match="^" + re.escape(f"table income line 4: {message}")
                           + "$"):
            load_acs_table_csv(text, "income", SCHEMA.income_categories)

    def test_empty_file_is_a_bad_header(self):
        with pytest.raises(ParseError, match=r"^table income: bad header \(\)$"):
            load_acs_table_csv("", "income", SCHEMA.income_categories)

    def test_bundled_schema_shape(self):
        assert len(SCHEMA.income_categories) == 10
        assert len(SCHEMA.education_levels) == 9
        assert len(SCHEMA.age_brackets) == 9


def sum_categories_oracle(rows, table_id, counties, expected_labels):
    """The per-call aggregation the indexed tables replaced."""
    by_county: dict[str, dict[str, float]] = {}
    for county, label, value in rows:
        by_county.setdefault(county, {})[label] = value
    totals = [0.0] * len(expected_labels)
    for county in sorted(set(counties)):
        if county not in by_county:
            raise MissingCounty(f"table {table_id}: county {county!r} missing")
        labels = by_county[county]
        if set(labels) != set(expected_labels):
            raise CategoryCountMismatch(
                f"table {table_id}: county {county!r} has "
                f"{len(labels)} categories, expected {len(expected_labels)}"
            )
        for i, label in enumerate(expected_labels):
            totals[i] += labels[label]
    return totals


def profile_oracle(tables, population, counties):
    """A station's profile as the per-station loop built it."""
    counties = sorted(counties)
    income = sum_categories_oracle(tables["income"], "income", counties,
                                   SCHEMA.income_categories)
    education = sum_categories_oracle(tables["education"], "education", counties,
                                      SCHEMA.education_levels)
    age = sum_categories_oracle(tables["age"], "age", counties, AGE_LABELS)
    males = females = 0.0
    for county in counties:
        if county not in population:
            raise MissingCounty(f"population table: county {county!r} missing")
        males += population[county][0]
        females += population[county][1]
    total, ratio = frames.population_and_gender(males, females)
    return frames.SocioeconomicProfile(
        avg_income=frames.avg_income(income),
        avg_education=frames.avg_education(education),
        avg_age=frames.avg_age(age, [level for _, level in SCHEMA.age_brackets]),
        total_population=total,
        male_female_ratio=ratio,
    )


def random_census(rng, n_counties):
    """Fractional census tables over ``n_counties`` counties, with some
    counties missing from a table, short of a category, or all zero."""
    counties = [f"c{k}" for k in range(n_counties)]
    tables = {}
    for table_id, labels in (("income", SCHEMA.income_categories),
                             ("education", SCHEMA.education_levels),
                             ("age", AGE_LABELS)):
        rows = []
        for county in counties:
            fate = rng.random()
            if fate < 0.04:
                continue  # missing
            kept = labels[:-1] if fate < 0.08 else labels
            zero = fate > 0.97
            rows += [(county, label, 0.0 if zero else rng.uniform(0, 1000) * rng.choice([1, 1e-3, 1e6]))
                     for label in kept]
        rng.shuffle(rows)
        tables[table_id] = rows
    population = {}
    for county in counties:
        if rng.random() > 0.04:
            male = rng.uniform(1, 5e4) if rng.random() > 0.05 else 0.0
            female = rng.uniform(0, 5e4) if rng.random() > 0.05 else 0.0
            population[county] = (male, female)
    return counties, tables, population


class TestCensusAgainstOracle:
    def test_sums_bit_for_bit(self):
        rng = random.Random(11)
        labels = SCHEMA.income_categories
        for _ in range(30):
            counties = [f"c{k}" for k in range(12)]
            rows = [(c, label, rng.uniform(0, 1000) * rng.choice([1, 1e-7, 1e9]))
                    for c in counties for label in labels]
            rng.shuffle(rows)
            table = load_acs_table_csv(acs_text(rows), "income", labels)
            sets = [tuple(sorted(rng.sample(counties, rng.randint(1, 6)))) for _ in range(40)]
            totals, errors = table.sum_over(sets)
            assert errors == [None] * len(sets)
            for counties_of_set, row in zip(sets, totals):
                want = sum_categories_oracle(rows, "income", counties_of_set, labels)
                assert np.array(want).tobytes() == row.tobytes()

    def test_profiles_and_first_errors(self):
        rng = random.Random(5)
        for _ in range(20):
            counties, tables, population = random_census(rng, 15)
            loaded = {table_id: load_acs_table_csv(acs_text(rows), table_id, labels)
                      for (table_id, rows), labels in zip(tables.items(), (
                          SCHEMA.income_categories, SCHEMA.education_levels, AGE_LABELS))}
            sets = list(dict.fromkeys(
                tuple(sorted(rng.sample(counties, rng.randint(1, 4)))) for _ in range(60)))
            got = census_profiles(sets, loaded["income"], loaded["education"], loaded["age"],
                                  population, SCHEMA)
            for counties_of_set, result in zip(sets, got):
                try:
                    want = profile_oracle(tables, population, counties_of_set)
                except (MissingCounty, CategoryCountMismatch, ZeroFemale,
                        EmptyHouseholds, InvalidProfile) as exc:
                    assert (type(result), str(result)) == (type(exc), str(exc))
                else:
                    assert result == want
                    assert np.array(result.as_row()).tobytes() == \
                        np.array(want.as_row()).tobytes()


class TestPopulationCsv:
    def test_empty_file_is_a_bad_header(self):
        with pytest.raises(ParseError, match=r"^population: bad header \(\)$"):
            load_population_csv("")

    def test_reads_counts(self):
        out = load_population_csv("county,male,female\na,10,12\n")
        assert out == {"a": (10.0, 12.0)}

    def test_rejects_duplicate(self):
        with pytest.raises(ParseError):
            load_population_csv("county,male,female\na,10,12\na,1,2\n")

    @pytest.mark.parametrize("row, message", [
        ("b,ten,12", "bad number 'ten'"),
        ("b,10,", "bad number ''"),
        ("b,-1,12", "negative number '-1'"),
        ("b,10,-0.5", "negative number '-0.5'"),
        ("b,nan,12", "bad number 'nan'"),
        ("b,10,inf", "bad number 'inf'"),
        ("b,10", "expected 3 fields, got 2"),
        ("a,1,2", "duplicate county 'a'"),
    ])
    def test_bad_row_names_its_line(self, row, message):
        with pytest.raises(ParseError, match="^" + re.escape(f"population line 3: {message}") + "$"):
            load_population_csv(f"county,male,female\na,10,12\n{row}\n")
