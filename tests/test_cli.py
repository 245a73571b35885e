import contextlib
import csv
import datetime as dt
import http.server
import io
import json
import os
import random
import re
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import urllib.parse
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikepls import ingest
from bikepls.cli import main
from bikepls.frames import ANALYSIS_TABLE_HEADER, TRANSITION_LABELS, load_analysis_table
from conftest import FIXTURES, REPO_ROOT


def run_cli(*args):
    return main(list(args))


def document_tree(out: Path) -> dict[str, bytes]:
    """The bytes of every document under ``out``'s reports/ and figures/."""
    return {str(p.relative_to(out)): p.read_bytes()
            for sub in ("reports", "figures") for p in sorted((out / sub).rglob("*"))
            if p.is_file()}


def zero_values(text):
    """A ``county,label,value`` table with every value 0."""
    lines = text.splitlines()
    return "\n".join(lines[:1] + [line.rsplit(",", 1)[0] + ",0" for line in lines[1:]]) + "\n"


class TestDerive:
    def test_matches_committed_outputs(self, demo_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("--config", str(demo_config), "--output-dir", str(out),
                       "derive") == 0
        expected = FIXTURES / "expected"
        assert (out / "profiles.csv").read_text() == \
            (expected / "profiles.csv").read_text()
        assert (out / "transitions.csv").read_text() == \
            (expected / "transitions.csv").read_text()
        assert (out / "analysis_table.csv").read_text() == \
            (expected / "analysis_table.csv").read_text()
        assert not (out / "derive_errors.csv").exists()

    def test_missing_schedule_exits_2(self, demo_config, tmp_path, capsys):
        code = run_cli("--config", str(demo_config), "--output-dir",
                       str(tmp_path / "out"), "derive",
                       "--schedule", "/nonexistent/schedule.json")
        assert code == 2
        assert "/nonexistent/schedule.json" in capsys.readouterr().err

    def test_zero_baseline_station_partial_progress(self, demo_config, tmp_path,
                                                    capsys):
        # zero out one station's 2018 pandemic-window counts
        counts = (FIXTURES / "counts_2018.csv").read_text().splitlines()
        broken = []
        for line in counts:
            if line.startswith("st_cherry,2018-03-20") or \
               line.startswith("st_cherry,2018-04-15"):
                station, date, _ = line.split(",")
                line = f"{station},{date},0"
            broken.append(line)
        counts_path = tmp_path / "counts_2018.csv"
        counts_path.write_text("\n".join(broken) + "\n")

        cfg = json.loads(demo_config.read_text())
        cfg["counts_csv"] = [str(counts_path), cfg["counts_csv"][1]]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(cfg))

        out = tmp_path / "out"
        code = run_cli("--config", str(config_path), "--output-dir", str(out),
                       "derive")
        assert code == 2
        errors = (out / "derive_errors.csv").read_text()
        assert "st_cherry,ZeroBaseline" in errors
        # the healthy station is still fully processed
        transitions = (out / "transitions.csv").read_text()
        assert "st_platte" in transitions
        assert "st_cherry" not in transitions
        profiles = (out / "profiles.csv").read_text()
        assert "st_cherry" in profiles and "st_platte" in profiles
        # the analysis table holds only stations with both a profile and rates
        table = (out / "analysis_table.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in table[1:]] == ["st_platte"]
        assert "st_cherry,ZeroBaseline" in capsys.readouterr().err

    def test_bad_stations_row_exits_2_with_line(self, demo_config, tmp_path, capsys):
        for row, message in (("st_extra", "expected 3 or 4 fields, got 1"),
                             ("st_extra,north,-105.0,X", "bad number 'north'")):
            stations = tmp_path / "stations.csv"
            stations.write_text((FIXTURES / "stations.csv").read_text() + row + "\n")
            code = run_cli("--config", str(demo_config), "--output-dir",
                           str(tmp_path / "out"), "derive", "--stations", str(stations))
            assert code == 2
            assert f"stations line 4: {message}" in capsys.readouterr().err

    def test_window_ending_on_feb_29_ends_on_feb_28_in_2018(self, demo_config, tmp_path):
        # no count falls on 2020-02-29, so both schedules give the same rates
        outputs = []
        for last in ("2020-02-29", "2020-02-28"):
            schedule = json.loads((FIXTURES / "schedule.json").read_text())
            schedule["Pre-Pandemic"]["end"] = last
            schedule["Pandemic"]["start"] = "2020-03-01"
            path = tmp_path / f"schedule_{last}.json"
            path.write_text(json.dumps(schedule))
            out = tmp_path / last
            assert run_cli("--config", str(demo_config), "--output-dir", str(out), "derive",
                           "--schedule", str(path)) == 0
            outputs.append((out / "transitions.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_schedule_across_new_year_exits_2(self, demo_config, tmp_path, capsys):
        schedule = json.loads((FIXTURES / "schedule.json").read_text())
        schedule["Transition"]["end"] = "2020-10-31"
        schedule["Normalization"] = {"start": "2020-11-01", "end": "2021-02-28"}
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(schedule))
        code = run_cli("--config", str(demo_config), "--output-dir",
                       str(tmp_path / "out"), "derive", "--schedule", str(path))
        assert code == 2
        assert "period 'Normalization' crosses New Year" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, message", [
        ("acs_income", "table income: bad header ()"),
        ("acs_age", "table age: bad header ()"),
        ("population", "population: bad header ()"),
    ])
    def test_empty_census_file_exits_2(self, demo_config, tmp_path, capsys, key, message):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = run_cli("--config", str(demo_config), "--output-dir", str(tmp_path / "out"),
                       "derive", "--" + key.replace("_", "-"), str(empty))
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("station_id,date,count\rst_cherry,2018-01-10,100\r",
         "line 1: new-line character seen in unquoted field"),
        ("station_id,date,count\nst_cherry,2018-01-10,100\n{long},2018-01-10,1\n",
         "line 3: field larger than field limit"),
    ], ids=["bare-cr", "long-field"])
    def test_counts_the_csv_module_refuses_exit_2(self, demo_config, tmp_path, capsys,
                                                  text, message):
        counts = tmp_path / "counts.csv"
        counts.write_text(text.replace("{long}", "x" * (csv.field_size_limit() + 1)),
                          newline="")
        code = run_cli("--config", str(demo_config), "--output-dir", str(tmp_path / "out"),
                       "derive", "--counts-csv", str(counts))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {counts}: {message}")

    def test_counts_error_names_the_faulty_file(self, demo_config, tmp_path, capsys):
        good = REPO_ROOT / "fixtures/counts_2018.csv"
        bad = tmp_path / "counts_2020.csv"
        bad.write_text((REPO_ROOT / "fixtures/counts_2020.csv").read_text()
                       .replace("2020-", "2020/", 1))
        code = run_cli("--config", str(demo_config), "--output-dir", str(tmp_path / "out"),
                       "derive", "--counts-csv", str(good), str(bad))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: line 2: bad date '2020/")

    def test_duplicate_across_two_files_names_both(self, demo_config, tmp_path, capsys):
        first, later = FIXTURES / "counts_2018.csv", tmp_path / "counts_2020.csv"
        later.write_text((FIXTURES / "counts_2020.csv").read_text() + "st_cherry,2018-02-10,7\n")
        code = run_cli("--config", str(demo_config), "--output-dir", str(tmp_path / "out"),
                       "derive", "--counts-csv", str(first), str(later))
        assert code == 2
        assert capsys.readouterr().err == (f"error: {later}: duplicate observation for "
                                           f"(st_cherry, 2018-02-10), also in {first}\n")

    def test_duplicate_between_first_and_third_file(self, demo_config, tmp_path, capsys):
        first, third = FIXTURES / "counts_2018.csv", tmp_path / "more_2018.csv"
        third.write_text("station_id,date,count\nst_new,2018-01-12,1\n"
                         "st_platte,2018-02-20,5\nst_platte,2018-01-12,6\n")
        code = run_cli("--config", str(demo_config), "--output-dir", str(tmp_path / "out"),
                       "derive", "--counts-csv", str(first), str(FIXTURES / "counts_2020.csv"),
                       str(third))
        assert code == 2
        # the first pair of the file in (station, date) order
        assert capsys.readouterr().err == (f"error: {third}: duplicate observation for "
                                           f"(st_platte, 2018-01-12), also in {first}\n")

    def test_crlf_counts_take_the_byte_path(self, demo_config, tmp_path):
        counts = []
        for name in ("counts_2018.csv", "counts_2020.csv"):
            counts.append(tmp_path / name)
            counts[-1].write_bytes((FIXTURES / name).read_bytes().replace(b"\n", b"\r\n"))
        out = tmp_path / "out"
        with mock.patch.object(ingest, "_record_batches", side_effect=AssertionError):
            assert run_cli("--config", str(demo_config), "--output-dir", str(out), "derive",
                           "--counts-csv", *map(str, counts)) == 0
        for name in ("profiles.csv", "transitions.csv", "analysis_table.csv"):
            assert (out / name).read_bytes() == (FIXTURES / "expected" / name).read_bytes()

    def test_non_finite_census_cell_exits_2_with_line(self, demo_config, tmp_path, capsys):
        income = tmp_path / "acs_income.csv"
        income.write_text((FIXTURES / "acs_income.csv").read_text().replace(
            "county_a,under_10k,120", "county_a,under_10k,nan"))
        code = run_cli("--config", str(demo_config), "--output-dir", str(tmp_path / "out"),
                       "derive", "--acs-income", str(income))
        assert code == 2
        assert capsys.readouterr().err == "error: table income line 2: bad number 'nan'\n"
        assert not (tmp_path / "out").exists()

    def test_county_set_without_men_fails_per_station(self, demo_config, tmp_path):
        population = tmp_path / "population.csv"
        population.write_text("county,male,female\ncounty_a,0,50000\ncounty_b,0,62000\n")
        out = tmp_path / "out"
        assert run_cli("--config", str(demo_config), "--output-dir", str(out),
                       "derive", "--population", str(population)) == 2
        assert (out / "derive_errors.csv").read_text().splitlines() == [
            "station_id,error,message",
            "st_cherry,InvalidProfile,male_female_ratio must be positive",
            "st_platte,InvalidProfile,male_female_ratio must be positive",
        ]
        assert (out / "analysis_table.csv").read_text().count("\n") == 1

    @pytest.mark.parametrize("name, label, error", [
        ("acs_income.csv", "10k_to_15k", "avg_income nan is not finite"),
        ("acs_education.csv", "no_schooling", '"avg_education nan outside [0, 8]"'),
    ], ids=["income", "education"])
    def test_census_sum_overflow_fails_per_station(self, demo_config, tmp_path, name, label,
                                                   error):
        # each cell is finite, but st_platte's catchment sums two of them to inf
        rows = (FIXTURES / name).read_text().splitlines()
        table = tmp_path / name
        table.write_text("\n".join(
            row.rsplit(",", 1)[0] + ",1e308" if f",{label}," in row else row
            for row in rows) + "\n")
        out = tmp_path / "out"
        assert run_cli("--config", str(demo_config), "--output-dir", str(out),
                       "derive", "--" + table.stem.replace("_", "-"), str(table)) == 2
        assert (out / "derive_errors.csv").read_text().splitlines()[1:] == [
            f"st_platte,InvalidProfile,{error}"]
        ids, _, _ = load_analysis_table((out / "analysis_table.csv").read_text())
        assert ids == ("st_cherry",)

    @pytest.mark.parametrize("name, edit, error", [
        ("population.csv", lambda text: text.replace(",50000", ",0").replace(",62000", ",0"),
         "ZeroFemale,male/female ratio undefined: zero female count"),
        ("acs_income.csv", zero_values,
         "EmptyHouseholds,no households across income categories"),
        ("acs_education.csv", zero_values,
         "EmptyHouseholds,no households across education levels"),
        ("acs_age.csv", zero_values,
         "EmptyHouseholds,no population across age brackets"),
    ], ids=["no-women", "no-income", "no-education", "no-age"])
    def test_empty_census_fails_per_station(self, demo_config, tmp_path, name, edit, error):
        path = tmp_path / name
        path.write_text(edit((FIXTURES / name).read_text()))
        out = tmp_path / "out"
        assert run_cli("--config", str(demo_config), "--output-dir", str(out), "derive",
                       "--" + path.stem.replace("_", "-"), str(path)) == 2
        assert (out / "derive_errors.csv").read_text().splitlines()[1:] == [
            f"st_cherry,{error}", f"st_platte,{error}"]

    def test_zero_2020_window_fails_per_station(self, demo_config, tmp_path):
        counts = tmp_path / "counts_2020.csv"
        counts.write_text((FIXTURES / "counts_2020.csv").read_text()
                          .replace("2020-03-20,150", "2020-03-20,0")
                          .replace("2020-04-15,180", "2020-04-15,0"))
        out = tmp_path / "out"
        assert run_cli("--config", str(demo_config), "--output-dir", str(out), "derive",
                       "--counts-csv", str(FIXTURES / "counts_2018.csv"), str(counts)) == 2
        assert (out / "derive_errors.csv").read_text().splitlines()[1:] == [
            "st_cherry,ZeroBaseline,year-over-year ratio for 'Pandemic' is zero; "
            "transition rate undefined"]

    def test_error_rows_have_three_fields(self, demo_config, tmp_path):
        # county_a loses one income category; its message contains a comma
        rows = (FIXTURES / "acs_income.csv").read_text().splitlines()
        income = tmp_path / "acs_income.csv"
        income.write_text("\n".join(r for r in rows if r != "county_a,200k_and_over,60") + "\n")
        cfg = json.loads(demo_config.read_text())
        cfg["acs_income"] = str(income)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(cfg))

        out = tmp_path / "out"
        assert run_cli("--config", str(config_path), "--output-dir", str(out),
                       "derive") == 2
        with open(out / "derive_errors.csv", newline="") as f:
            parsed = list(csv.reader(f))
        assert parsed[0] == ["station_id", "error", "message"]
        assert len(parsed) > 1
        assert all(len(row) == 3 for row in parsed)
        assert {row[1] for row in parsed[1:]} == {"CategoryCountMismatch"}
        assert all("9 categories, expected 10" in row[2] for row in parsed[1:])


def _set_geometry(feature, kind, *rings):
    feature["geometry"] = {"type": kind, "coordinates": list(rings)}


SQUARE = [[-105.05, 39.60], [-104.80, 39.60], [-104.80, 39.74], [-105.05, 39.74]]
PERIODS = "['Pre-Pandemic', 'Pandemic', 'Transition', 'Normalization']"


def _edit_model(field, edit):
    """Edit one field of the first period's model in an analysis document."""
    def apply(doc):
        model = doc["periods"]["pre_pandemic_to_pandemic"]["model"]
        model[field] = edit(model[field])
        return doc
    return apply


class TestRefusedInputs:
    """Each input file a command reads, and each setting, is refused by
    name (exit 2) before anything is written."""

    @staticmethod
    def refused(capsys, out, *args):
        code = run_cli("--output-dir", str(out), *args)
        assert not out.exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda s: s["Pre-Pandemic"].update(start="2020-03-15", end="2020-01-01"),
         "period 'Pre-Pandemic' has start after end"),
        (lambda s: s["Pandemic"].update(start="2020-03-10"),
         "period 'Pandemic' overlaps the previous period"),
        (lambda s: s.pop("Normalization"),
         f"schedule must name exactly the periods {PERIODS}, "
         "got ['Pre-Pandemic', 'Pandemic', 'Transition']"),
        (lambda s: s.update(Recovery={"start": "2021-01-01", "end": "2021-03-01"}),
         f"schedule must name exactly the periods {PERIODS}, "
         "got ['Pre-Pandemic', 'Pandemic', 'Transition', 'Normalization', 'Recovery']"),
    ], ids=["start-after-end", "overlap", "missing-label", "extra-label"])
    def test_schedule(self, demo_config, tmp_path, capsys, edit, message):
        schedule = json.loads((FIXTURES / "schedule.json").read_text())
        edit(schedule)
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(schedule))
        assert self.refused(capsys, tmp_path / "out", "--config", str(demo_config), "derive",
                            "--schedule", str(path)) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("text, message", [
        ("{stations}\nst_far,91.0,-105.0,Far\n",
         "stations line 5: latitude 91.0 outside [-90, 90]"),
        ("{stations}st_far,39.7,181.0,Far\n",
         "stations line 4: longitude 181.0 outside [-180, 180]"),
        ("{stations}st_far,39.7,-105.0,{long}\n",
         f"stations line 4: field larger than field limit ({csv.field_size_limit()})"),
        ("station_id,latitude,longitude,name\n", "need at least one station and one polygon"),
    ], ids=["latitude-after-blank-line", "longitude", "long-field", "header-only"])
    def test_stations(self, demo_config, tmp_path, capsys, text, message):
        path = tmp_path / "stations.csv"
        path.write_text(text.format(stations=(FIXTURES / "stations.csv").read_text(),
                                    long="x" * (csv.field_size_limit() + 1)))
        assert self.refused(capsys, tmp_path / "out", "--config", str(demo_config), "derive",
                            "--stations", str(path)) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda doc, f: doc.update(type="Feature"), "expected a GeoJSON FeatureCollection"),
        (lambda doc, f: f.update(properties={}),
         "polygon feature is missing a 'name' property"),
        (lambda doc, f: _set_geometry(f, "MultiPolygon", [SQUARE]),
         "county 'county_a': only Polygon geometry is supported"),
        (lambda doc, f: _set_geometry(f, "Polygon", SQUARE, SQUARE[::-1]),
         "county 'county_a' has interior rings; holes are not supported"),
        (lambda doc, f: _set_geometry(f, "Polygon", SQUARE[:2] + SQUARE[:1]),
         "county 'county_a' has 2 vertices"),
        (lambda doc, f: _set_geometry(f, "Polygon", SQUARE + SQUARE[:1] * 2),
         "ring closure is implicit; drop the repeated vertex"),
    ], ids=["not-a-collection", "no-name", "multipolygon", "holes", "two-vertices",
            "closed-twice"])
    def test_counties(self, demo_config, tmp_path, capsys, edit, message):
        doc = json.loads((FIXTURES / "counties.geojson").read_text())
        edit(doc, doc["features"][0])
        path = tmp_path / "counties.geojson"
        path.write_text(json.dumps(doc))
        assert self.refused(capsys, tmp_path / "out", "--config", str(demo_config), "derive",
                            "--counties", str(path)) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("data, message", [
        (None, "counts file not found: {path}"),
        (b"station_id,date,count\nst_cherry,2018-01-10,1\xff\n",
         "{path}: counts payload is not UTF-8: 'utf-8' codec can't decode byte 0xff in "
         "position 44: invalid start byte"),
        (b"", "{path}: line 1: empty counts payload"),
        (b"station,date,count\nst_cherry,2018-01-10,1\n",
         "{path}: line 1: bad counts header ('station', 'date', 'count')"),
        (b"station_id,date,count\nst_cherry,2018-01-10,1\nst_cherry,2018-01-10,2\n",
         "{path}: line 3: duplicate observation for (st_cherry, 2018-01-10)"),
        (b"station_id,date,count\nst_cherry,2018-01-10,1\nst_cherry,2018-01-11,x",
         "{path}: line 3: bad count 'x'"),
        (b'"station_id",date,count\nst_cherry,2018-01-10,1\nst_cherry,2018-01-11\n',
         "{path}: line 3: expected 3 fields, got 2"),
    ], ids=["missing", "not-utf-8", "empty", "bad-header", "duplicate", "no-final-newline",
            "quoted-two-fields"])
    def test_counts(self, demo_config, tmp_path, capsys, data, message):
        path = tmp_path / "counts.csv"
        if data is not None:
            path.write_bytes(data)
        assert self.refused(capsys, tmp_path / "out", "--config", str(demo_config), "derive",
                            "--counts-csv", str(path)) == \
            (2, f"error: {message.format(path=path)}\n")

    @pytest.mark.parametrize("args, message", [
        (("derive", "--radius-m", "0"), "radius must be positive"),
        (("derive", "--counts-csv"), "counts_csv is required for derive"),
        (("fetch", "--counts-url-template", ""), "counts_url_template is required for fetch"),
        (("fetch", "--start", "2020-12-31", "--end", "2020-01-01"),
         "range start is after range end"),
    ], ids=["radius", "no-counts", "no-url-template", "start-after-end"])
    def test_settings(self, demo_config, tmp_path, capsys, args, message):
        assert self.refused(capsys, tmp_path / "out", "--config", str(demo_config),
                            *args) == (2, f"error: {message}\n")

    def test_required_setting(self, tmp_path, capsys):
        assert self.refused(capsys, tmp_path / "out", "fetch") == (
            2, "error: stations is required (set it in the config or via a flag)\n")

    def test_response_without_the_station(self, demo_config, tmp_path, capsys):
        responses = tmp_path / "responses"
        shutil.copytree(FIXTURES / "responses", responses)
        (responses / "st_cherry_2020.csv").write_bytes(
            (FIXTURES / "responses/st_platte_2020.csv").read_bytes())
        assert self.refused(capsys, tmp_path / "out", "--config", str(demo_config), "fetch",
                            "--cache-dir", str(tmp_path / "cache"), "--fixtures",
                            str(responses)) == \
            (2, "error: response contains no rows for station 'st_cherry'\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: {"format": "bikepls-model", "version": doc["version"]},
         "not a bikepls-analysis document"),
        (lambda doc: doc["periods"].pop("pandemic_to_transition") and doc,
         "bundle is missing transitions: ['pandemic_to_transition']"),
        (_edit_model("y_total_ss", lambda _: "0"),
         "{path}: pre_pandemic_to_pandemic model: y_total_ss must be positive"),
        (_edit_model("score_ss", lambda m: {**m, "data": ["-1"] + m["data"][1:]}),
         "{path}: pre_pandemic_to_pandemic model: score_ss must be positive"),
        (_edit_model("y_loadings", lambda m: {**m, "data": ["nan"] + m["data"][1:]}),
         "{path}: pre_pandemic_to_pandemic model: y_loadings holds a number that is not "
         "finite"),
        (_edit_model("x_loadings", lambda m: {**m, "data": ["0"] * len(m["data"])}),
         "{path}: pre_pandemic_to_pandemic model: x_loadings and x_weights do not give a "
         "unit upper triangular product"),
        (_edit_model("score_ss", lambda m: {"shape": [1], "data": m["data"][:1]}),
         "{path}: pre_pandemic_to_pandemic model: score_ss has shape [1], but 3 factors of "
         "5 predictors need [3]"),
        (_edit_model("y_loadings", lambda m: {**m, "data": ["1e200"] + m["data"][1:]}),
         "{path}: pre_pandemic_to_pandemic model: its variance shares, importance scores "
         "or coefficients are not finite"),
    ], ids=["another-format", "period-removed", "y-total-ss-zero", "negative-score-ss",
            "nan-loading",
            "singular-projection", "wrong-shape", "overflowing-loading"])
    def test_analysis_document(self, tmp_path, capsys, edit, message):
        out = tmp_path / "out"
        assert run_cli("--output-dir", str(out), "analyze") == 0
        path = tmp_path / "analysis.json"
        path.write_text(json.dumps(edit(json.loads((out / "analysis.json").read_text()))))
        shutil.rmtree(out)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.refused(capsys, out, "report", "--input", str(path)) == \
                (2, f"error: {message.format(path=path)}\n")

    @pytest.mark.parametrize("column, flags", [
        ("avg_income", ("--standardize-y",)),
        ("pre_pandemic_to_pandemic", ()),
        ("pre_pandemic_to_pandemic", ("--standardize-y",)),
    ])
    def test_column_whose_statistics_overflow(self, table1_text, tmp_path, capsys, column,
                                              flags):
        # every cell is finite, but the column's mean is not
        rows = [line.split(",") for line in table1_text.strip().splitlines()]
        k = rows[0].index(column)
        for row, value in zip(rows[1:], ("1e308", "1e308", "-1e308", "1e308")):
            row[k] = value
        table = tmp_path / "table.csv"
        table.write_text("\n".join(map(",".join, rows)) + "\n")
        kind = "predictor" if column == "avg_income" else "response"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.refused(capsys, tmp_path / "out", "analyze", "--input", str(table),
                                *flags) == \
                (2, f"error: {table}: {kind} '{column}' overflows: its mean or standard "
                    "deviation is not a finite double\n")


def write_region(directory, rng, side=4):
    """A side x side grid of square counties with one station at each center,
    random census tables and random counts for 2018 and 2020; returns the
    config path."""
    schema = json.loads((REPO_ROOT / "src/bikepls/data/acs_schema.json").read_text())
    tables = {
        "acs_income": schema["income_categories"],
        "acs_education": schema["education_levels"],
        "acs_age": [bracket["label"] for bracket in schema["age_brackets"]],
    }
    cell = 0.25  # degrees; a center is 0.125 degrees (> 10 km) from every edge
    features, stations, counties = [], [], []
    for r in range(side):
        for c in range(side):
            lat, lon = 39.0 + r * cell, -105.5 + c * cell
            name = f"county_{r}_{c}"
            ring = [[lon, lat], [lon + cell, lat], [lon + cell, lat + cell],
                    [lon, lat + cell], [lon, lat]]
            features.append({"type": "Feature", "properties": {"name": name},
                             "geometry": {"type": "Polygon", "coordinates": [ring]}})
            stations.append(f"st_{r}_{c},{lat + cell / 2!r},{lon + cell / 2!r},Station {r} {c}")
            counties.append(name)
    (directory / "counties.geojson").write_text(
        json.dumps({"type": "FeatureCollection", "features": features}))
    (directory / "stations.csv").write_text(
        "station_id,latitude,longitude,name\n" + "\n".join(stations) + "\n")
    for key, labels in tables.items():
        rows = [f"{county},{label},{int(rng.integers(50, 5000))}"
                for county in counties for label in labels]
        (directory / f"{key}.csv").write_text("county,label,value\n" + "\n".join(rows) + "\n")
    rows = [f"{county},{int(rng.integers(20_000, 200_000))},{int(rng.integers(20_000, 200_000))}"
            for county in counties]
    (directory / "population.csv").write_text("county,male,female\n" + "\n".join(rows) + "\n")
    config = {"schedule": str(FIXTURES / "schedule.json"), "counts_csv": []}
    for year in (2018, 2020):
        rows = [f"st_{r}_{c},{dt.date(year, month, day)},{int(rng.integers(20, 500))}"
                for r in range(side) for c in range(side)
                for month in range(1, 13) for day in (1, 10, 20)]
        path = directory / f"counts_{year}.csv"
        path.write_text("station_id,date,count\n" + "\n".join(rows) + "\n")
        config["counts_csv"].append(str(path))
    for key in ("stations", "counties", *tables, "population"):
        suffix = ".geojson" if key == "counties" else ".csv"
        config[key] = str(directory / f"{key}{suffix}")
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestPipeline:
    """``derive`` writes the analysis table that ``analyze`` reads."""

    def test_constant_predictor_names_column_and_table(self, tmp_path, capsys):
        # a second station in the one county of a 1 x 1 region: both
        # stations share every predictor
        config = write_region(tmp_path, np.random.default_rng(7), side=1)
        stations = tmp_path / "stations.csv"
        stations.write_text(stations.read_text() + "st_twin,39.13,-105.37,Twin\n")
        for path in json.loads(config.read_text())["counts_csv"]:
            lines = Path(path).read_text().splitlines()
            twin = [line.replace("st_0_0,", "st_twin,") for line in lines[1:]]
            Path(path).write_text("\n".join(lines + twin) + "\n")
        out = tmp_path / "out"
        assert run_cli("--config", str(config), "--output-dir", str(out), "derive") == 0
        capsys.readouterr()
        table = out / "analysis_table.csv"
        assert run_cli("--output-dir", str(out), "analyze", "--input", str(table)) == 2
        assert capsys.readouterr().err == (
            f"error: {table}: predictor 'avg_income' is constant; "
            "standardization undefined\n")

    def derive_then_analyze(self, config, out, components, capsys):
        assert run_cli("--config", str(config), "--output-dir", str(out), "derive") == 0
        capsys.readouterr()
        table = out / "analysis_table.csv"
        assert run_cli("--output-dir", str(out), "--json", "analyze",
                       "--components", str(components), "--input", str(table)) == 0
        summary = json.loads(capsys.readouterr().out)
        assert list(summary) == list(TRANSITION_LABELS)
        assert all(entry["factors"] == components for entry in summary.values())
        assert len(list((out / "reports").rglob("*.csv"))) == 15
        assert len(list((out / "figures").glob("*.csv"))) == 15
        return table.read_text().splitlines()

    def test_fixtures(self, demo_config, tmp_path, capsys):
        # two stations allow a single factor
        rows = self.derive_then_analyze(demo_config, tmp_path / "out", 1, capsys)
        assert [row.split(",")[0] for row in rows[1:]] == ["st_cherry", "st_platte"]

    def test_synthetic_region(self, tmp_path, capsys):
        config = write_region(tmp_path, np.random.default_rng(20210301))
        out = tmp_path / "out"
        rows = self.derive_then_analyze(config, out, 3, capsys)
        assert len(rows) == 17
        # each table row joins the station's transitions.csv and profiles.csv rows
        rates = (out / "transitions.csv").read_text().splitlines()
        profiles = (out / "profiles.csv").read_text().splitlines()
        assert rows[1:] == [f"{r},{p.split(',', 1)[1]}"
                            for r, p in zip(rates[1:], profiles[1:])]


class TestCarriageReturnIds:
    """A station id holding a carriage return reads the same from the
    stations file, the counts files and the analysis table."""

    def test_id_survives_derive_and_analyze(self, demo_config, tmp_path, capsys):
        quoted = b'"st\rcherry",'
        stations = tmp_path / "stations.csv"
        stations.write_bytes((FIXTURES / "stations.csv").read_bytes()
                             .replace(b"st_cherry,", quoted))
        counts = []
        for name in ("counts_2018.csv", "counts_2020.csv"):
            counts.append(tmp_path / name)
            counts[-1].write_bytes((FIXTURES / name).read_bytes().replace(b"st_cherry,", quoted))
        out = tmp_path / "out"
        assert run_cli("--config", str(demo_config), "--output-dir", str(out), "derive",
                       "--stations", str(stations),
                       "--counts-csv", *map(str, counts)) == 0
        for name in ("profiles.csv", "transitions.csv", "analysis_table.csv"):
            with open(out / name, newline="") as f:
                assert [row[0] for row in csv.reader(f)][1:] == ["st\rcherry", "st_platte"]
        table = out / "analysis_table.csv"
        assert run_cli("--output-dir", str(out), "analyze", "--components", "1",
                       "--input", str(table)) == 0
        figure = out / "figures/avg_income__pre_pandemic_to_pandemic.csv"
        with open(figure, newline="") as f:
            assert [row[0] for row in csv.reader(f)][1:] == ["st\rcherry", "st_platte"]
        # `report` reads the table again, through the row reader
        written = document_tree(out)
        figure.unlink()
        assert run_cli("--output-dir", str(out), "report") == 0
        assert document_tree(out) == written

    def test_unassigned_id_survives_the_error_file(self, demo_config, tmp_path, capsys):
        stations = tmp_path / "stations.csv"
        stations.write_bytes((FIXTURES / "stations.csv").read_bytes()
                             + b'"st\rfar",10.0,10.0,Far away\n')
        out = tmp_path / "out"
        assert run_cli("--config", str(demo_config), "--output-dir", str(out), "derive",
                       "--stations", str(stations)) == 2
        with open(out / "derive_errors.csv", newline="") as f:
            assert list(csv.reader(f)) == [["station_id", "error", "message"],
                                           ["st\rfar", "Unassigned",
                                            "no county within catchment radius"]]

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_stations_line_ends(self, demo_config, tmp_path, newline):
        stations = tmp_path / "stations.csv"
        stations.write_bytes((FIXTURES / "stations.csv").read_bytes().replace(b"\n", newline))
        out = tmp_path / "out"
        assert run_cli("--config", str(demo_config), "--output-dir", str(out), "derive",
                       "--stations", str(stations)) == 0
        for name in ("profiles.csv", "transitions.csv", "analysis_table.csv"):
            assert (out / name).read_bytes() == (FIXTURES / "expected" / name).read_bytes()


class TestColdStart:
    @pytest.mark.parametrize("module, absent", [
        ("bikepls.cli", "numpy"),
        ("bikepls.ingest", "urllib.request"),
        ("bikepls.cli", "bikepls.catchment"),
    ])
    def test_import_leaves_module_out(self, module, absent):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        code = f"import sys, {module}; print({absent!r} in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "False"


class TestFetch:
    def test_fixture_transport(self, demo_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("--config", str(demo_config), "--output-dir", str(out),
                       "--json", "fetch",
                       "--cache-dir", str(tmp_path / "cache"))
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == {"stations": 2, "rows": 16}
        text = (out / "counts.csv").read_text()
        assert text.startswith("station_id,date,count\n")
        assert text.count("\n") == 17

    def test_quoted_station_id_reaches_derive(self, demo_config, tmp_path):
        # an id holding a comma travels stations -> fetch -> counts.csv -> derive
        responses = tmp_path / "responses"
        responses.mkdir()
        manifest = json.loads((FIXTURES / "responses/manifest.json").read_text())
        for name in manifest.values():
            (responses / name).write_text((FIXTURES / "responses" / name).read_text())
        url = "https://counts.example/api?station=a,b&start=2020-01-01&end=2020-12-31"
        manifest[url] = "a_b_2020.csv"
        (responses / "manifest.json").write_text(json.dumps(manifest))
        (responses / "a_b_2020.csv").write_text(
            (FIXTURES / "responses/st_cherry_2020.csv").read_text().replace(
                "st_cherry,", '"a,b",'))
        stations = tmp_path / "stations.csv"
        stations.write_text((FIXTURES / "stations.csv").read_text()
                            + '"a,b",39.65,-104.95,x\n')
        counts_2018 = tmp_path / "counts_2018.csv"
        lines = (FIXTURES / "counts_2018.csv").read_text().splitlines()
        counts_2018.write_text("\n".join(
            lines + [line.replace("st_cherry,", '"a,b",') for line in lines
                     if line.startswith("st_cherry,")]) + "\n")

        out = tmp_path / "out"
        assert run_cli("--config", str(demo_config), "--output-dir", str(out), "fetch",
                       "--cache-dir", str(tmp_path / "cache"), "--fixtures", str(responses),
                       "--stations", str(stations)) == 0
        assert run_cli("--config", str(demo_config), "--output-dir", str(out), "derive",
                       "--stations", str(stations), "--counts-csv", str(counts_2018),
                       str(out / "counts.csv")) == 0
        with open(out / "analysis_table.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert [row[0] for row in rows[1:]] == ["a,b", "st_cherry", "st_platte"]
        # the station with a comma has st_cherry's counts and location
        assert rows[1][1:] == rows[2][1:]

    def test_unrecorded_url_is_internal_error(self, demo_config, tmp_path, capsys):
        code = run_cli("--config", str(demo_config), "--output-dir",
                       str(tmp_path / "out"), "fetch",
                       "--cache-dir", str(tmp_path / "cache"),
                       "--start", "2021-01-01", "--end", "2021-12-31")
        assert code == 1

    def test_warm_cache_and_corrupt_entry(self, demo_config, tmp_path):
        responses = tmp_path / "responses"
        shutil.copytree(FIXTURES / "responses", responses)
        manifest = (responses / "manifest.json").read_text()
        cache = tmp_path / "cache"

        def fetch(name):
            out = tmp_path / name
            assert run_cli("--config", str(demo_config), "--output-dir", str(out), "fetch",
                           "--cache-dir", str(cache), "--fixtures", str(responses)) == 0
            return (out / "counts.csv").read_bytes()

        cold = fetch("cold")
        bodies = sorted(cache.iterdir())
        stored = {p: p.read_bytes() for p in bodies}
        # with no recorded response, any transport call fails
        (responses / "manifest.json").write_text("{}")
        assert fetch("warm") == cold
        # a damaged body fails its checksum, is evicted and fetched again
        damaged = bytearray(stored[bodies[0]])
        damaged[30] ^= 1
        bodies[0].write_bytes(bytes(damaged))
        (responses / "manifest.json").write_text(manifest)
        assert fetch("refetched") == cold
        assert {p: p.read_bytes() for p in bodies} == stored

    def test_warm_pass_opens_no_response_file(self, demo_config, tmp_path, capsys):
        responses = tmp_path / "responses"
        shutil.copytree(FIXTURES / "responses", responses)
        manifest = json.loads((responses / "manifest.json").read_text())

        def fetch(name):
            out = tmp_path / name
            code = run_cli("--config", str(demo_config), "--output-dir", str(out), "fetch",
                           "--cache-dir", str(tmp_path / "cache"), "--fixtures", str(responses))
            return code, out / "counts.csv"

        # a manifest entry whose file is missing fails only when it is requested
        manifest["https://counts.example/api?station=st_elm"] = "st_elm.csv"
        (responses / "manifest.json").write_text(json.dumps(manifest))
        code, cold = fetch("cold")
        assert code == 0
        for name in manifest.values():
            (responses / name).unlink(missing_ok=True)
        code, warm = fetch("warm")
        assert code == 0
        assert warm.read_bytes() == cold.read_bytes()
        shutil.rmtree(tmp_path / "cache")
        capsys.readouterr()
        assert fetch("refetched")[0] == 2
        err = capsys.readouterr().err
        assert "No such file or directory" in err and str(responses) in err

    @pytest.mark.parametrize("flag, value, field", [
        ("--parallelism", "0", "parallelism"),
        ("--retries", "-1", "retries"),
        ("--timeout-s", "0", "timeout"),
    ])
    def test_source_config_checks_exit_2(self, demo_config, tmp_path, capsys, flag, value,
                                         field):
        code = run_cli("--config", str(demo_config), "--output-dir", str(tmp_path / "out"),
                       "fetch", "--cache-dir", str(tmp_path / "cache"), flag, value)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {field} must be")
        assert not (tmp_path / "out").exists()

    @contextlib.contextmanager
    def serve_fixtures(self):
        """An HTTP server on a free loopback port that answers each fixture
        URL's path and query with its recorded response; yields the URL
        template that reaches it."""
        manifest = json.loads((FIXTURES / "responses/manifest.json").read_text())
        bodies = {}
        for url, name in manifest.items():
            parts = urllib.parse.urlsplit(url)
            bodies[f"{parts.path}?{parts.query}"] = (FIXTURES / "responses" / name).read_bytes()

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                body = bodies.get(self.path)
                self.send_response(200 if body is not None else 404)
                self.end_headers()
                self.wfile.write(body or b"")

            def log_message(self, *args):
                pass

        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            yield (f"http://127.0.0.1:{server.server_address[1]}"
                   "/api?station={station}&start={start}&end={end}")
        finally:
            server.shutdown()
            thread.join()
            server.server_close()

    def test_live_transport_matches_fixtures(self, demo_config, tmp_path, monkeypatch):
        monkeypatch.setenv("no_proxy", "*")
        assert run_cli("--config", str(demo_config), "--output-dir", str(tmp_path / "fixtures"),
                       "fetch", "--cache-dir", str(tmp_path / "cache-fixtures")) == 0
        with self.serve_fixtures() as template:
            assert run_cli("--config", str(demo_config), "--output-dir", str(tmp_path / "live"),
                           "fetch", "--cache-dir", str(tmp_path / "cache-live"),
                           "--transport", "live", "--counts-url-template", template) == 0
        assert (tmp_path / "live/counts.csv").read_bytes() == \
            (tmp_path / "fixtures/counts.csv").read_bytes()

    def test_live_transport_closed_port_is_internal_error(self, demo_config, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.setenv("no_proxy", "*")
        with socket.socket() as sock:  # a port that was free and is closed again
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        url = f"http://127.0.0.1:{port}/api?station=st_cherry&start=2020-01-01&end=2020-12-31"
        code = run_cli("--config", str(demo_config), "--output-dir", str(tmp_path / "out"),
                       "fetch", "--cache-dir", str(tmp_path / "cache"), "--retries", "0",
                       "--transport", "live", "--counts-url-template",
                       f"http://127.0.0.1:{port}/api?station={{station}}&start={{start}}"
                       "&end={end}")
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: GET {url} failed after 1 attempts: GET {url} failed: ")
        assert not (tmp_path / "out").exists()


class TestAnalyze:
    def test_bundled_table_default_input(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("--output-dir", str(out), "--json", "analyze")
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        for entry in summary.values():
            assert entry["factors"] == 3
            assert entry["cumulative_y_variance"] == pytest.approx(1.0, abs=1e-6)
        assert (out / "analysis.json").exists()
        assert len(list((out / "models").glob("*.json"))) == 3
        assert len(list((out / "figures").glob("*.csv"))) == 15

    def test_too_many_components_exits_2(self, tmp_path, capsys):
        code = run_cli("--output-dir", str(tmp_path / "out"), "analyze",
                       "--components", "4")
        assert code == 2
        assert "factors" in capsys.readouterr().err

    def test_single_component_tables(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--output-dir", str(out), "analyze",
                       "--components", "1") == 0
        header = (out / "reports/pre_pandemic_to_pandemic/weights.csv") \
            .read_text().splitlines()[0]
        assert header == "variable,factor_1"

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = run_cli("--output-dir", str(tmp_path / "out"), "analyze",
                       "--input", "/nonexistent/table.csv")
        assert code == 2

    @pytest.mark.parametrize("edit, message", [
        (lambda row: row + ",7", "analysis table line 3: expected 9 fields, got 10"),
        (lambda row: row.rsplit(",", 1)[0], "analysis table line 3: expected 9 fields, got 8"),
        (lambda row: row.replace(",0.79,", ",high,"), "analysis table line 3: bad number 'high'"),
        (lambda row: "0" + row[1:], "analysis table line 3: duplicate station_id '0'"),
    ])
    def test_bad_table_row_exits_2_with_line(self, table1_text, tmp_path, capsys,
                                             edit, message):
        lines = table1_text.strip().splitlines()
        lines[2] = edit(lines[2])
        table = tmp_path / "table.csv"
        table.write_text("\n".join(lines) + "\n")
        code = run_cli("--output-dir", str(tmp_path / "out"), "analyze",
                       "--input", str(table))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_factor_fit_reports_zero(self, table1_text, tmp_path, capsys):
        # a constant response leaves nothing to explain: no factor is extracted
        rows = [line.split(",") for line in table1_text.strip().splitlines()]
        for row in rows[1:]:
            row[2] = "1.0"
        table = tmp_path / "table.csv"
        table.write_text("\n".join(",".join(row) for row in rows) + "\n")
        out = tmp_path / "out"
        assert run_cli("--output-dir", str(out), "--json", "analyze",
                       "--input", str(table)) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["pandemic_to_transition"] == {"factors": 0,
                                                     "cumulative_y_variance": 0.0}
        assert summary["pre_pandemic_to_pandemic"]["factors"] == 3
        assert (out / "analysis.json").exists()

    def test_response_orthogonal_to_every_predictor_fits_no_factor(self, tmp_path, capsys):
        # centered, the first response is (1, 1, -1, -1); every predictor
        # column is centered and orthogonal to it, so Xᵀ(y - ȳ) is zero
        table = tmp_path / "table.csv"
        table.write_text(",".join(ANALYSIS_TABLE_HEADER) + "\n" + "".join(
            f"s{k},{row}\n" for k, row in enumerate([
                "2.0,1.0,0.9,1,1,2,0,3", "2.0,1.5,1.1,-1,-1,-2,0,-3",
                "0.0,0.5,1.3,1,-1,0,2,1", "0.0,2.0,0.7,-1,1,0,-2,-1"])))
        out, again = tmp_path / "out", tmp_path / "again"
        assert run_cli("--output-dir", str(out), "--json", "analyze",
                       "--input", str(table)) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["pre_pandemic_to_pandemic"] == {"factors": 0,
                                                       "cumulative_y_variance": 0.0}
        # the zero-factor model reads back from analysis.json and renders the same
        assert run_cli("--output-dir", str(again), "report",
                       "--input", str(out / "analysis.json")) == 0
        rendered = [path for path in again.rglob("*") if path.is_file()]
        assert rendered
        for path in rendered:
            assert path.read_bytes() == (out / path.relative_to(again)).read_bytes()

    @pytest.mark.parametrize("keep", [0, 1])
    def test_too_few_stations_names_table_and_count(self, table1_text, tmp_path, capsys,
                                                    keep):
        lines = table1_text.strip().splitlines()
        table = tmp_path / "table.csv"
        table.write_text("\n".join(lines[: 1 + keep]) + "\n")
        code = run_cli("--output-dir", str(tmp_path / "out"), "analyze",
                       "--input", str(table))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {table}: the analysis table has {keep} station(s); "
            "a fit needs at least 2\n")
        assert not (tmp_path / "out").exists()

    def test_invalid_components_config(self, tmp_path):
        code = run_cli("--output-dir", str(tmp_path / "out"), "analyze",
                       "--components", "0")
        assert code == 2


# Matrices of the older layouts, in their decimal-string encoding.
X4 = {"shape": [4, 5], "data": ["0"] * 20}
Y4 = {"shape": [4], "data": ["1"] * 4}


class TestReport:
    def test_rerenders_from_saved_analysis(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--output-dir", str(out), "analyze") == 0
        assert json.loads((out / "analysis.json").read_text())["table"] == "bundled"
        vip_path = out / "reports/pre_pandemic_to_pandemic/vip.csv"
        original = vip_path.read_text()
        written = document_tree(out)
        vip_path.unlink()
        assert run_cli("--output-dir", str(out), "report") == 0
        assert vip_path.read_text() == original
        assert document_tree(out) == written

    def test_missing_analysis_exits_2(self, tmp_path):
        assert run_cli("--output-dir", str(tmp_path / "empty"), "report") == 2

    def test_version_1_analysis_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("--output-dir", str(out), "analyze") == 0
        path = out / "analysis.json"
        doc = json.loads(path.read_text())
        # the version-1 layout: per-sample arrays, no score_ss or n_samples
        doc["version"] = 1
        for entry in doc["periods"].values():
            model = entry["model"]
            model["version"] = 1
            del model["score_ss"], model["n_samples"]
            model["x_scores"] = {"shape": [4, 3], "data": ["0"] * 12}
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("--output-dir", str(out), "report") == 2
        err = capsys.readouterr().err
        assert "version 1" in err and "re-run `analyze`" in err

    @staticmethod
    def older_analysis_exits_2(out, capsys, version, **fields):
        out.mkdir()
        (out / "analysis.json").write_text(json.dumps(
            {"format": "bikepls-analysis", "version": version, **fields}))
        assert run_cli("--output-dir", str(out), "report") == 2
        err = capsys.readouterr().err
        assert f"version {version}" in err and "re-run `analyze`" in err

    def test_version_2_analysis_exits_2(self, tmp_path, capsys):
        # the version-2 layout: every period holds a whole frame
        self.older_analysis_exits_2(tmp_path / "out", capsys, 2, periods={
            t: {"frame": {"x": X4, "y": Y4, "transition": t}} for t in TRANSITION_LABELS})

    def test_version_3_analysis_exits_2(self, tmp_path, capsys):
        # the version-3 layout: the shared frame fields once, then y per period
        self.older_analysis_exits_2(tmp_path / "out", capsys, 3, station_ids=["0", "1", "2", "3"],
                                    x=X4, periods={t: {"y": Y4} for t in TRANSITION_LABELS})

    def test_inconsistent_period_exits_2(self, tmp_path, capsys):
        # a model fit to another number of samples than the table holds
        out = tmp_path / "out"
        assert run_cli("--output-dir", str(out), "analyze") == 0
        path = out / "analysis.json"
        doc = json.loads(path.read_text())
        doc["periods"]["pandemic_to_transition"]["model"]["n_samples"] = 3
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("--output-dir", str(out), "report") == 2
        names = "['avg_income', 'avg_education', 'avg_age', 'total_population', " \
                "'male_female_ratio']"
        assert capsys.readouterr().err == (
            f"error: the pandemic_to_transition model was fit to 3 samples of {names}, "
            f"but its frame holds 4 samples of {names}\n")

    def test_edited_table_exits_2(self, table1_text, tmp_path, capsys):
        table, out = tmp_path / "table.csv", tmp_path / "out"
        table.write_text(table1_text)
        assert run_cli("--output-dir", str(out), "analyze", "--input", str(table)) == 0
        lines = table1_text.splitlines(keepends=True)
        cells = lines[2].split(",")
        cells[1] = repr(float(cells[1]) + 1.0)
        lines[2] = ",".join(cells)
        table.write_text("".join(lines))
        capsys.readouterr()
        assert run_cli("--output-dir", str(out), "report") == 2
        assert capsys.readouterr().err == (
            f"error: analysis table {table} has changed since `analyze` read it; "
            "re-run `analyze`\n")

    def test_deleted_table_exits_2(self, table1_text, tmp_path, capsys):
        table, out = tmp_path / "table.csv", tmp_path / "out"
        table.write_text(table1_text)
        assert run_cli("--output-dir", str(out), "analyze", "--input", str(table)) == 0
        table.unlink()
        capsys.readouterr()
        assert run_cli("--output-dir", str(out), "report") == 2
        assert capsys.readouterr().err == (
            f"error: analysis table {table} not found; re-run `analyze`\n")

    def test_relative_input_reported_from_another_directory(self, table1_text, tmp_path,
                                                            monkeypatch):
        (tmp_path / "data").mkdir()
        (tmp_path / "elsewhere").mkdir()
        (tmp_path / "data/table.csv").write_text(table1_text)
        out = tmp_path / "out"
        monkeypatch.chdir(tmp_path / "data")
        assert run_cli("--output-dir", str(out), "analyze", "--input", "table.csv") == 0
        doc = json.loads((out / "analysis.json").read_text())
        assert doc["table"] == str((tmp_path / "data/table.csv").resolve())
        written = document_tree(out)
        shutil.rmtree(out / "reports")
        shutil.rmtree(out / "figures")
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert run_cli("--output-dir", str(out), "report") == 0
        assert document_tree(out) == written


class TestReproduce:
    def test_json_summary_structure(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("--output-dir", str(out), "--json", "reproduce")
        summary = json.loads(capsys.readouterr().out)
        assert set(summary) == {"passed", "checks"}
        assert {c["criterion"] for c in summary["checks"]} == {1, 2, 3, 4, 5, 6, 7}
        hard_failures = [
            c for c in summary["checks"] if c["hard"] and not c["passed"]
        ]
        # the single reference-table discrepancy documented in
        # test_plsr.py::TestVip::test_reference_vip_uses_unnormalized_weight_columns
        assert [c["name"] for c in hard_failures] == ["importance cells"]
        assert code == (0 if summary["passed"] else 1)
        assert (out / "reproduction_summary.json").exists()
        assert (out / "reports/pre_pandemic_to_pandemic/vip.csv").exists()

    def test_rejects_non_reference_factor_count(self, tmp_path, capsys):
        code = run_cli("--output-dir", str(tmp_path / "out"), "reproduce",
                       "--components", "2")
        assert code == 2
        assert "three-factor" in capsys.readouterr().err

    def test_corrupted_reference_cell_is_named(self, tmp_path, monkeypatch, capsys):
        from bikepls import reproduce as rep

        golden = rep.load_golden()
        golden["periods"]["pandemic_to_transition"]["coefficients"][0] = 9.99
        monkeypatch.setattr(rep, "load_golden", lambda: golden)
        code = run_cli("--output-dir", str(tmp_path / "out"), "reproduce")
        assert code == 1
        out_text = capsys.readouterr().out
        assert "FAIL criterion 4 [coefficients]" in out_text


class TestConfigHandling:
    def test_unknown_config_field_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "config.json"
        # tolerance configured the multi-response iteration and is gone
        for fields in ({"radius": 4828}, {"tolerance": 1e-10}):
            bad.write_text(json.dumps(fields))
            assert run_cli("--config", str(bad), "--output-dir",
                           str(tmp_path / "out"), "analyze") == 2
            assert "unknown config fields" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run_cli("--output-dir", str(tmp_path / "out"), "analyze",
                    "--tolerance", "1e-10")
        assert exc.value.code == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run_cli("--config", str(tmp_path / "nope.json"), "analyze") == 2

    def test_flag_overrides_config(self, demo_config, tmp_path):
        # a tiny radius keeps st_platte inside county_b only, so its
        # catchment no longer pools the neighbouring county's population
        out = tmp_path / "out"
        code = run_cli("--config", str(demo_config), "--output-dir", str(out),
                       "derive", "--radius-m", "100")
        assert code == 0
        profiles = (out / "profiles.csv").read_text()
        platte_row = [r for r in profiles.splitlines() if r.startswith("st_platte")][0]
        assert platte_row.split(",")[4] == "123000.0"

    def test_invalid_transport_exits_2(self, tmp_path):
        assert run_cli("--output-dir", str(tmp_path / "out"), "fetch",
                       "--transport", "carrier-pigeon") == 2


def random_region_lines(rng: random.Random) -> dict[str, list[str]]:
    """The rows of every derive input for a small random region: 3 x 3
    counties of 0.05 degrees (under two catchment radii), stations anywhere
    on them, census and count rows that leave some stations failing."""
    schema = json.loads((REPO_ROOT / "src/bikepls/data/acs_schema.json").read_text())
    tables = {
        "acs_income": schema["income_categories"],
        "acs_education": schema["education_levels"],
        "acs_age": [bracket["label"] for bracket in schema["age_brackets"]],
    }
    cell = 0.05
    counties = [(f"c{r}{c}", 39.0 + r * cell, -105.0 + c * cell)
                for r in range(3) for c in range(3)]
    lines: dict[str, list[str]] = {"counties": []}
    for name, lat, lon in counties:
        ring = [[lon, lat], [lon + cell, lat], [lon + cell, lat + cell], [lon, lat + cell],
                [lon, lat]]
        lines["counties"].append(json.dumps(
            {"type": "Feature", "properties": {"name": name},
             "geometry": {"type": "Polygon", "coordinates": [ring]}}))
    stations = [f"s{k:02d}" for k in range(14)]
    lines["stations"] = [
        f"{sid},{39.0 + rng.uniform(-0.02, 0.17)!r},{-105.0 + rng.uniform(-0.02, 0.17)!r},{sid}"
        for sid in stations]
    for key, labels in tables.items():
        lines[key] = [f"{name},{label},{rng.randint(0, 900)}"
                      for name, _, _ in counties if rng.random() > 0.01 for label in labels]
    lines["population"] = [f"{name},{rng.randint(1, 9000)},{rng.randint(0, 9000)}"
                           for name, _, _ in counties if rng.random() > 0.01]
    lines["counts"] = []
    for sid in stations:
        zeros = rng.choice([0.0, 0.0, 0.0, 0.3, 1.0])
        for year in (2018, 2019, 2020):
            start = dt.date(year, 1, 1)
            days = rng.sample(range(365), rng.choice([0, 3, 30] + [200] * 9))
            lines["counts"] += [
                f"{sid},{start + dt.timedelta(days=k)},"
                f"{0 if rng.random() < zeros else rng.randint(1, 90)}" for k in days]
    return lines


HEADERS = {
    "stations": "station_id,latitude,longitude,name",
    "acs_income": "county,label,value",
    "acs_education": "county,label,value",
    "acs_age": "county,label,value",
    "population": "county,male,female",
}


def derive_outputs(directory: Path, lines: dict[str, list[str]], shuffle: random.Random | None,
                   split: bool) -> dict[str, bytes]:
    """Write the inputs (rows shuffled when ``shuffle`` is given, counts in
    two files when ``split``), run derive, and return its exit code, its
    standard output and every file it wrote."""
    directory.mkdir()
    def rows(key):
        out = list(lines[key])
        if shuffle is not None:
            shuffle.shuffle(out)
        return out
    config = {"schedule": str(FIXTURES / "schedule.json"), "counts_csv": []}
    for key, header in HEADERS.items():
        path = directory / f"{key}.csv"
        path.write_text("\n".join([header] + rows(key)) + "\n")
        config[key] = str(path)
    path = directory / "counties.geojson"
    path.write_text('{"type": "FeatureCollection", "features": [' + ",".join(rows("counties")) + "]}")
    config["counties"] = str(path)
    counts = rows("counts")
    parts = [counts[: len(counts) // 3], counts[len(counts) // 3:]] if split else [counts]
    for k, part in enumerate(parts):
        path = directory / f"counts_{k}.csv"
        path.write_text("\n".join(["station_id,date,count"] + part) + "\n")
        config["counts_csv"].append(str(path))
    (directory / "config.json").write_text(json.dumps(config))
    out = directory / "out"
    code = run_cli("--config", str(directory / "config.json"), "--output-dir", str(out),
                   "--json", "derive")
    written = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return {"exit": code, **written}


class TestDeriveRelations:
    """Input row order, county feature order and splitting the counts across
    files leave every derive output byte unchanged."""

    @settings(max_examples=25, deadline=None)
    @given(region=st.integers(0, 2**32 - 1), shuffle=st.integers(0, 2**32 - 1),
           split=st.booleans())
    def test_order_and_split_leave_outputs_unchanged(self, region, shuffle, split):
        lines = random_region_lines(random.Random(region))
        with tempfile.TemporaryDirectory() as tmp:
            base = derive_outputs(Path(tmp) / "base", lines, None, False)
            moved = derive_outputs(Path(tmp) / "moved", lines, random.Random(shuffle), split)
        assert set(base) >= {"exit", "profiles.csv", "transitions.csv", "analysis_table.csv"}
        assert moved == base

    def test_regions_exercise_failures_and_shared_sets(self):
        # the generator gives regions where stations fail and share sets
        kinds, rows, shared = set(), 0, 0
        for seed in range(6):
            with tempfile.TemporaryDirectory() as tmp:
                out = derive_outputs(Path(tmp) / "r", random_region_lines(random.Random(seed)),
                                     None, False)
            errors = out.get("derive_errors.csv", b"").decode().splitlines()[1:]
            kinds |= {row.split(",")[1] for row in errors}
            rows += len(out["analysis_table.csv"].decode().splitlines()) - 1
            profiles = [line.split(",", 1)[1]
                        for line in out["profiles.csv"].decode().splitlines()[1:]]
            shared += len(profiles) - len(set(profiles))
        assert {"EmptyPeriod", "ZeroBaseline", "MissingCounty"} <= kinds
        assert rows > 20 and shared > 5


# Faults in the raw inputs of a random region, as ``inject_fault`` makes
# them; the first three are refused by the loaders, the others by station.
CELL_FAULTS = {"nan": "nan", "inf": "inf", "negative": "-1"}
STATION_FAULTS = ("no_men", "overflow", "comma_id", "quote_id")


def inject_fault(lines: dict[str, list[str]], rng: random.Random) -> str:
    """Put one fault into the rows of ``random_region_lines``; return its kind."""
    kind = rng.choice(list(CELL_FAULTS) + list(STATION_FAULTS))
    if kind in CELL_FAULTS:
        key = rng.choice(["acs_income", "acs_education", "acs_age", "population"])
        k = rng.randrange(len(lines[key]))
        cells = lines[key][k].split(",")
        cells[rng.choice([1, 2] if key == "population" else [2])] = CELL_FAULTS[kind]
        lines[key][k] = ",".join(cells)
    elif kind == "no_men":
        # about half the counties, so that some county sets have no men at all
        lines["population"] = [
            "{},0,{}".format(*row.split(",")[::2]) if rng.random() < 0.5 else row
            for row in lines["population"]]
    elif kind == "overflow":
        # finite cells in one column of every county, whose sum over two is inf
        key = rng.choice(["acs_income", "acs_education", "acs_age", "population"])
        if key == "population":
            lines[key] = [row.split(",")[0] + ",1e308," + row.split(",")[2]
                          for row in lines[key]]
        else:
            label = rng.choice(lines[key]).split(",")[1]
            lines[key] = [row.rsplit(",", 1)[0] + ",1e308" if row.split(",")[1] == label
                          else row for row in lines[key]]
    else:
        sid = f"s{rng.randrange(14):02d},"
        quoted = '"a,b",' if kind == "comma_id" else '"q""t",'
        for key in ("stations", "counts"):
            lines[key] = [quoted + row[len(sid):] if row.startswith(sid) else row
                          for row in lines[key]]
    return kind


class TestDeriveChain:
    """``derive`` either refuses a bad input file by its line, or accounts
    for every station and writes a table that ``analyze`` can load."""

    @settings(max_examples=25, deadline=None)
    @given(region=st.integers(0, 2**32 - 1), fault=st.integers(0, 2**32 - 1))
    def test_output_is_the_next_input(self, region, fault):
        lines = random_region_lines(random.Random(region))
        kind = inject_fault(lines, random.Random(fault))
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            out = derive_outputs(Path(tmp) / "r", lines, None, False)
        if kind in CELL_FAULTS:
            assert out == {"exit": 2}
            assert re.fullmatch(r"error: (table (income|education|age)|population) line \d+: "
                                r"(bad|negative) number '[^']*'\n", err.getvalue())
            return
        stations = [row[0] for row in csv.reader(lines["stations"])]
        ids, _, _ = load_analysis_table(out["analysis_table.csv"].decode())
        errors = out.get("derive_errors.csv", b"station_id,error,message\n").decode()
        failed = [row[0] for row in csv.reader(io.StringIO(errors))][1:]
        assert sorted([*ids, *failed]) == sorted(stations)
        assert out["exit"] == (2 if failed else 0)
