import csv
import datetime as dt
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bikepls.cli import main
from bikepls.frames import TRANSITION_LABELS
from conftest import FIXTURES, REPO_ROOT


def run_cli(*args):
    return main(list(args))


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
                             ("st_extra,north,-105.0,X", "bad coordinates")):
            stations = tmp_path / "stations.csv"
            stations.write_text((FIXTURES / "stations.csv").read_text() + row + "\n")
            code = run_cli("--config", str(demo_config), "--output-dir",
                           str(tmp_path / "out"), "derive", "--stations", str(stations))
            assert code == 2
            assert f"stations line 4: {message}" in capsys.readouterr().err

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


class TestColdStart:
    @pytest.mark.parametrize("module, absent", [
        ("bikepls.cli", "numpy"),
        ("bikepls.ingest", "urllib.request"),
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

    def test_unrecorded_url_is_internal_error(self, demo_config, tmp_path, capsys):
        code = run_cli("--config", str(demo_config), "--output-dir",
                       str(tmp_path / "out"), "fetch",
                       "--cache-dir", str(tmp_path / "cache"),
                       "--start", "2021-01-01", "--end", "2021-12-31")
        assert code == 1


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
        (lambda row: "0" + row[1:], "analysis table line 3: duplicate station '0'"),
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

    def test_invalid_components_config(self, tmp_path):
        code = run_cli("--output-dir", str(tmp_path / "out"), "analyze",
                       "--components", "0")
        assert code == 2


class TestReport:
    def test_rerenders_from_saved_analysis(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--output-dir", str(out), "analyze") == 0
        vip_path = out / "reports/pre_pandemic_to_pandemic/vip.csv"
        original = vip_path.read_text()
        vip_path.unlink()
        assert run_cli("--output-dir", str(out), "report") == 0
        assert vip_path.read_text() == original

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


    def test_version_2_analysis_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("--output-dir", str(out), "analyze") == 0
        path = out / "analysis.json"
        doc = json.loads(path.read_text())
        # the version-2 layout: every period holds a whole frame
        shared = {k: doc.pop(k) for k in ("station_ids", "predictor_names", "x",
                                          "x_source_means", "x_source_stds")}
        doc["version"] = 2
        for period, entry in doc["periods"].items():
            entry["frame"] = dict(shared, y=entry.pop("y"), transition=period)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("--output-dir", str(out), "report") == 2
        err = capsys.readouterr().err
        assert "version 2" in err and "re-run `analyze`" in err

    def test_inconsistent_period_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("--output-dir", str(out), "analyze") == 0
        path = out / "analysis.json"
        doc = json.loads(path.read_text())
        doc["periods"]["pandemic_to_transition"]["y"]["data"].pop()
        doc["periods"]["pandemic_to_transition"]["y"]["shape"] = [3]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("--output-dir", str(out), "report") == 2
        assert "y must have shape (4,)" in capsys.readouterr().err


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
