import json
import math

import numpy as np
import pytest

from bikepls.catchment import (
    DEFAULT_RADIUS_M,
    EARTH_RADIUS_M,
    CatchmentCircle,
    CountyPolygon,
    Station,
    assign_counties,
    circle_touches_polygon,
    load_county_polygons,
    load_stations_csv,
)
from bikepls.errors import DegeneratePolygon, ParseError, UnsupportedGeometry

DEG_LAT_M = 111_194.9  # one degree of latitude on the working sphere


def haversine(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters between two lat/lon points."""
    phi1, lam1, phi2, lam2 = map(math.radians, (lat1, lon1, lat2, lon2))
    dphi = phi2 - phi1
    dlam = lam2 - lam1
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return EARTH_RADIUS_M * 2 * math.atan2(math.sqrt(a), math.sqrt(1 - a))


def square(name, lat_lo, lat_hi, lon_lo, lon_hi):
    return CountyPolygon(
        name,
        ((lat_lo, lon_lo), (lat_lo, lon_hi), (lat_hi, lon_hi), (lat_hi, lon_lo)),
    )


class TestHaversine:
    def test_identical_points(self):
        assert haversine(39.7392, -104.9903, 39.7392, -104.9903) == 0.0

    def test_denver_to_boulder(self):
        # frozen from an independent spherical law-of-cosines computation
        got = haversine(39.7392, -104.9903, 40.0150, -105.2705)
        assert got == pytest.approx(38_887.0, abs=200.0)

    def test_one_degree_longitude_on_equator(self):
        assert haversine(0, 0, 0, 1) == pytest.approx(111_195.0, abs=50.0)

    def test_symmetry(self, rng):
        for _ in range(50):
            a = rng.uniform(-80, 80), rng.uniform(-179, 179)
            b = rng.uniform(-80, 80), rng.uniform(-179, 179)
            assert haversine(*a, *b) == haversine(*b, *a)

    def test_triangle_inequality(self, rng):
        for _ in range(50):
            pts = [(rng.uniform(-80, 80), rng.uniform(-179, 179)) for _ in range(3)]
            ab = haversine(*pts[0], *pts[1])
            bc = haversine(*pts[1], *pts[2])
            ac = haversine(*pts[0], *pts[2])
            assert ac <= ab + bc + 1e-6 * max(ab, bc, ac, 1.0)


CENTER = Station("s", 39.70, -105.00)


class TestCircleTouchesPolygon:
    def test_center_inside(self):
        poly = square("big", 39.0, 40.4, -105.7, -104.3)
        assert circle_touches_polygon(CatchmentCircle(CENTER, 1000.0), poly)

    def test_far_outside(self):
        # nearest edge ~10 km north, radius 1 km
        poly = square("north", 39.79, 39.90, -105.10, -104.90)
        assert not circle_touches_polygon(CatchmentCircle(CENTER, 1000.0), poly)

    def test_edge_within_ninety_percent_of_radius(self):
        d = 0.9 * DEFAULT_RADIUS_M
        lat_edge = CENTER.latitude + d / DEG_LAT_M
        poly = square("near", lat_edge, lat_edge + 0.1, -105.10, -104.90)
        assert circle_touches_polygon(CatchmentCircle(CENTER, DEFAULT_RADIUS_M), poly)
        assert not circle_touches_polygon(
            CatchmentCircle(CENTER, 0.8 * DEFAULT_RADIUS_M), poly
        )

    def test_cyclic_rotation_invariance(self, rng):
        poly = square("box", 39.72, 39.80, -105.05, -104.95)
        circle = CatchmentCircle(CENTER, DEFAULT_RADIUS_M)
        expected = circle_touches_polygon(circle, poly)
        ring = poly.ring
        for shift in range(1, len(ring)):
            rotated = CountyPolygon("box", ring[shift:] + ring[:shift])
            assert circle_touches_polygon(circle, rotated) == expected

    def test_radius_monotonicity(self):
        poly = square("north", 39.76, 39.90, -105.10, -104.90)
        touched = [
            circle_touches_polygon(CatchmentCircle(CENTER, r), poly)
            for r in (1000.0, 3000.0, 5000.0, 8000.0, 12000.0)
        ]
        assert touched == sorted(touched)

    def test_degenerate_polygon(self):
        with pytest.raises(DegeneratePolygon):
            CountyPolygon("line", ((39.0, -105.0), (39.1, -105.0)))


class TestAssignCounties:
    def test_single_containing_county(self):
        poly = square("home", 39.60, 39.80, -105.10, -104.90)
        assignments, unassigned = assign_counties([CENTER], [poly], 100.0)
        assert assignments == {"s": frozenset({"home"})}
        assert unassigned == ()

    def test_shared_border(self):
        west = square("west", 39.60, 39.80, -105.20, -105.00)
        east = square("east", 39.60, 39.80, -105.00, -104.80)
        assignments, _ = assign_counties([CENTER], [west, east], 100.0)
        assert assignments["s"] == frozenset({"west", "east"})

    def test_nearby_county_within_three_miles(self):
        # station 2 km south of the county line, radius 3 miles
        line_lat = CENTER.latitude + 2000.0 / DEG_LAT_M
        south = square("south", 39.60, line_lat, -105.10, -104.90)
        north = square("north", line_lat, 39.90, -105.10, -104.90)
        assignments, _ = assign_counties([CENTER], [south, north], 4828.0)
        assert assignments["s"] == frozenset({"south", "north"})

    def test_unassigned_reported(self):
        faraway = square("far", 45.0, 46.0, -100.0, -99.0)
        assignments, unassigned = assign_counties([CENTER], [faraway], 1000.0)
        assert assignments["s"] == frozenset()
        assert unassigned == ("s",)

    def test_radius_never_shrinks_sets(self):
        polys = [
            square("a", 39.60, 39.74, -105.05, -104.80),
            square("b", 39.74, 39.85, -105.10, -104.90),
        ]
        previous: dict[str, frozenset[str]] = {"s": frozenset()}
        for radius in (500.0, 2000.0, 4828.0, 10000.0):
            assignments, _ = assign_counties([CENTER], polys, radius)
            assert previous["s"] <= assignments["s"]
            previous = assignments

    def test_empty_inputs_invalid(self):
        with pytest.raises(ValueError):
            assign_counties([], [], 1000.0)


GEOJSON = {
    "type": "FeatureCollection",
    "features": [
        {
            "type": "Feature",
            "properties": {"name": "alpha"},
            "geometry": {
                "type": "Polygon",
                "coordinates": [
                    [[-105.0, 39.0], [-104.0, 39.0], [-104.0, 40.0],
                     [-105.0, 40.0], [-105.0, 39.0]]
                ],
            },
        }
    ],
}


class TestGeojson:
    def test_reads_outer_ring_lonlat_order(self):
        polys = load_county_polygons(json.dumps(GEOJSON))
        assert len(polys) == 1
        assert polys[0].name == "alpha"
        # closure vertex dropped; coordinates flipped to (lat, lon)
        assert polys[0].ring[0] == (39.0, -105.0)
        assert len(polys[0].ring) == 4

    def test_rejects_holes(self):
        doc = json.loads(json.dumps(GEOJSON))
        doc["features"][0]["geometry"]["coordinates"].append(
            [[-104.8, 39.2], [-104.6, 39.2], [-104.6, 39.4], [-104.8, 39.2]]
        )
        with pytest.raises(UnsupportedGeometry, match="holes"):
            load_county_polygons(json.dumps(doc))

    def test_rejects_multipolygon(self):
        doc = json.loads(json.dumps(GEOJSON))
        doc["features"][0]["geometry"]["type"] = "MultiPolygon"
        with pytest.raises(UnsupportedGeometry):
            load_county_polygons(json.dumps(doc))

    def test_requires_name(self):
        doc = json.loads(json.dumps(GEOJSON))
        doc["features"][0]["properties"] = {}
        with pytest.raises(ValueError, match="name"):
            load_county_polygons(json.dumps(doc))

    def test_requires_feature_collection(self):
        with pytest.raises(ValueError):
            load_county_polygons(json.dumps({"type": "Feature"}))


class TestStations:
    def test_load_csv(self):
        text = "station_id,latitude,longitude,name\na,39.7,-105.0,Trail A\n"
        stations = load_stations_csv(text)
        assert stations == [Station("a", 39.7, -105.0, "Trail A")]

    def test_bad_header(self):
        with pytest.raises(ValueError):
            load_stations_csv("id,lat,lon\na,1,2\n")

    def test_duplicate_station_names_its_line(self):
        text = ("station_id,latitude,longitude,name\na,39.7,-105.0,A\n"
                "b,39.8,-105.1,B\na,39.9,-105.2,A again\n")
        with pytest.raises(ParseError, match="^stations line 4: duplicate station 'a'"):
            load_stations_csv(text)

    def test_coordinate_bounds(self):
        with pytest.raises(ValueError):
            Station("bad", 91.0, 0.0)
        with pytest.raises(ValueError):
            Station("bad", 0.0, 181.0)

    def test_radius_positive(self):
        with pytest.raises(ValueError):
            CatchmentCircle(CENTER, 0.0)
