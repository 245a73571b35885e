import datetime as dt
import json

import pytest

from bikepls.errors import (
    CategoryCountMismatch,
    MissingCounty,
    NetworkError,
    ParseError,
)
from bikepls.ingest import (
    AcsSchema,
    FixtureTransport,
    RawAcsTable,
    ResponseCache,
    SourceConfig,
    fetch_counts,
    fetch_many,
    fixture_transport_from_dir,
    load_acs_table_csv,
    load_population_csv,
    parse_acs_age,
    parse_acs_education,
    parse_acs_income,
    parse_counts_csv,
)


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


COUNTS = b"station_id,date,count\nA,2020-01-02,5\nB,2020-01-01,7\nA,2020-01-01,3\n"


class TestParseCountsCsv:
    def test_three_rows_one_station(self):
        data = b"station_id,date,count\nA,2020-01-01,1\nA,2020-01-02,2\nA,2020-01-03,3\n"
        series = parse_counts_csv(data)
        assert len(series) == 1
        assert len(series["A"]) == 3

    def test_interleaved_stations_sorted(self):
        series = parse_counts_csv(COUNTS)
        assert set(series) == {"A", "B"}
        dates = [date for date, _ in series["A"].entries]
        assert dates == sorted(dates)

    def test_duplicate_observation(self):
        data = COUNTS + b"A,2020-01-01,9\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_counts_csv(data)

    def test_header_only(self):
        assert parse_counts_csv(b"station_id,date,count\n") == {}

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
        assert parse_counts_csv(COUNTS) == parse_counts_csv(COUNTS)


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


class TestFetchCounts:
    def test_parses_fixture_response(self, tmp_path):
        transport = _fixture_transport()
        series = fetch_counts(_config(tmp_path), "A", *RANGE, transport)
        assert len(series) == 2
        assert transport.call_count == 1

    def test_second_call_served_from_cache(self, tmp_path):
        transport = _fixture_transport()
        config = _config(tmp_path)
        first = fetch_counts(config, "A", *RANGE, transport)
        second = fetch_counts(config, "A", *RANGE, transport)
        assert transport.call_count == 1
        assert first == second

    def test_corrupt_cache_entry_refetched(self, tmp_path):
        transport = _fixture_transport()
        config = _config(tmp_path)
        cache = ResponseCache(config.cache_dir)
        fetch_counts(config, "A", *RANGE, transport, cache)
        # damage the stored body without touching the checksum sidecar
        body_files = [
            p for p in cache.directory.iterdir() if not p.name.endswith(".meta.json")
        ]
        assert len(body_files) == 1
        body_files[0].write_bytes(b"garbage")
        series = fetch_counts(config, "A", *RANGE, transport, cache)
        assert transport.call_count == 2
        assert len(series) == 2

    def test_warm_cache_equals_cold_plus_live(self, tmp_path):
        config = _config(tmp_path)
        cold = fetch_counts(config, "A", *RANGE, _fixture_transport())
        warm = fetch_counts(config, "A", *RANGE, _fixture_transport())
        assert cold == warm

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
            fetch_counts(config, "A", *RANGE, transport)
        assert transport.calls == 3

    def test_missing_station_in_response(self, tmp_path):
        url = URL_TEMPLATE.format(station="Z", start=RANGE[0], end=RANGE[1])
        transport = FixtureTransport({url: COUNTS})
        with pytest.raises(ParseError, match="no rows for station"):
            fetch_counts(_config(tmp_path), "Z", *RANGE, transport)

    def test_inverted_range(self, tmp_path):
        with pytest.raises(ValueError):
            fetch_counts(_config(tmp_path), "A", RANGE[1], RANGE[0], _fixture_transport())

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

    def test_fixture_transport_from_dir(self, tmp_path):
        (tmp_path / "resp.csv").write_bytes(COUNTS)
        (tmp_path / "manifest.json").write_text(
            json.dumps({"https://example.test/x": "resp.csv"})
        )
        transport = fixture_transport_from_dir(tmp_path)
        assert transport.get("https://example.test/x") == COUNTS
        with pytest.raises(NetworkError):
            transport.get("https://example.test/other")


class TestSourceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SourceConfig(counts_url_template="x", timeout_s=0)
        with pytest.raises(ValueError):
            SourceConfig(counts_url_template="x", retries=-1)
        with pytest.raises(ValueError):
            SourceConfig(counts_url_template="x", parallelism=0)


SCHEMA = AcsSchema.bundled()


def _income_rows(county, values):
    return tuple(
        (county, label, value)
        for label, value in zip(SCHEMA.income_categories, values)
    )


class TestAcsTables:
    def test_single_county_passthrough(self):
        values = [10.0, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        table = RawAcsTable("income", _income_rows("denver", values))
        assert parse_acs_income(table, ["denver"], SCHEMA) == values

    def test_two_counties_summed(self):
        a = [1.0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        b = [2.0, 3, 0, 0, 0, 0, 0, 0, 0, 0]
        table = RawAcsTable("income", _income_rows("a", a) + _income_rows("b", b))
        assert parse_acs_income(table, ["a", "b"], SCHEMA) == \
            [3.0, 3, 0, 0, 0, 0, 0, 0, 0, 0]

    def test_summation_order_invariant(self):
        a = [1.0, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        b = [10.0, 9, 8, 7, 6, 5, 4, 3, 2, 1]
        table = RawAcsTable("income", _income_rows("a", a) + _income_rows("b", b))
        assert parse_acs_income(table, ["a", "b"], SCHEMA) == \
            parse_acs_income(table, ["b", "a"], SCHEMA)

    def test_wrong_category_count(self):
        rows = _income_rows("a", list(range(10)))[:9]
        table = RawAcsTable("income", rows)
        with pytest.raises(CategoryCountMismatch):
            parse_acs_income(table, ["a"], SCHEMA)

    def test_missing_county(self):
        table = RawAcsTable("income", _income_rows("a", list(range(10))))
        with pytest.raises(MissingCounty):
            parse_acs_income(table, ["a", "nowhere"], SCHEMA)

    def test_education_levels(self):
        rows = tuple(
            ("a", label, i) for i, label in enumerate(SCHEMA.education_levels)
        )
        table = RawAcsTable("education", rows)
        counts = parse_acs_education(table, ["a"], SCHEMA)
        assert counts == list(range(9))

    def test_age_returns_schema_levels(self):
        rows = tuple(
            ("a", label, 10.0) for label, _ in SCHEMA.age_brackets
        )
        table = RawAcsTable("age", rows)
        counts, levels = parse_acs_age(table, ["a"], SCHEMA)
        assert counts == [10.0] * len(SCHEMA.age_brackets)
        assert levels == [level for _, level in SCHEMA.age_brackets]

    def test_raw_table_rejects_negative(self):
        with pytest.raises(ValueError):
            RawAcsTable("income", (("a", "under_10k", -1.0),))

    def test_raw_table_rejects_duplicate_label(self):
        with pytest.raises(ValueError):
            RawAcsTable(
                "income",
                (("a", "under_10k", 1.0), ("a", "under_10k", 2.0)),
            )

    def test_load_csv(self):
        text = "county,label,value\na,under_10k,5\n"
        table = load_acs_table_csv(text, "income")
        assert table.rows == (("a", "under_10k", 5.0),)

    def test_load_csv_bad_header(self):
        with pytest.raises(ParseError):
            load_acs_table_csv("c,l,v\na,b,1\n", "income")

    def test_load_csv_bad_value(self):
        with pytest.raises(ParseError, match="line 2"):
            load_acs_table_csv("county,label,value\na,b,many\n", "income")

    def test_bundled_schema_shape(self):
        assert len(SCHEMA.income_categories) == 10
        assert len(SCHEMA.education_levels) == 9
        assert len(SCHEMA.age_brackets) == 9


class TestPopulationCsv:
    def test_reads_counts(self):
        out = load_population_csv("county,male,female\na,10,12\n")
        assert out == {"a": (10.0, 12.0)}

    def test_rejects_duplicate(self):
        with pytest.raises(ParseError):
            load_population_csv("county,male,female\na,10,12\na,1,2\n")

    @pytest.mark.parametrize("row, message", [
        ("b,ten,12", "bad head count"),
        ("b,10,", "bad head count"),
        ("b,-1,12", "head counts must be finite and non-negative"),
        ("b,10,-0.5", "head counts must be finite and non-negative"),
        ("b,nan,12", "head counts must be finite and non-negative"),
        ("b,10,inf", "head counts must be finite and non-negative"),
        ("b,10", "expected 3 fields, got 2"),
        ("a,1,2", "duplicate county 'a'"),
    ])
    def test_bad_row_names_its_line(self, row, message):
        with pytest.raises(ParseError, match=f"^population line 3: {message}"):
            load_population_csv(f"county,male,female\na,10,12\n{row}\n")
