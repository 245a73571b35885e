import json
import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikepls.catchment import (
    EARTH_RADIUS_M,
    CountyPolygon,
    Station,
    assign_counties,
    load_county_polygons,
    load_stations_csv,
)
from bikepls.cli import DEFAULT_RADIUS_M
from bikepls.errors import DegeneratePolygon, ParseError, UnsupportedGeometry

DEG_LAT_M = 111_194.9  # one degree of latitude on the working sphere


# --- scalar oracle: one circle against one polygon, edge by edge -------------

@dataclass(frozen=True)
class CatchmentCircle:
    center: Station
    radius_m: float

    def __post_init__(self):
        if self.radius_m <= 0:
            raise ValueError("radius must be positive")


def _wrap(delta: float) -> float:
    if delta >= 180.0:
        return delta - 360.0
    if delta < -180.0:
        return delta + 360.0
    return delta


def _project_local(ring, lat0: float, lon0: float) -> list[tuple[float, float]]:
    """Equirectangular projection (meters) about a reference point, with
    longitude differences wrapped into [-180, 180)."""
    cos0 = math.cos(math.radians(lat0))
    return [
        (
            EARTH_RADIUS_M * math.radians(_wrap(lon - lon0)) * cos0,
            EARTH_RADIUS_M * math.radians(lat - lat0),
        )
        for lat, lon in ring
    ]


def _point_in_ring(xy: Sequence[tuple[float, float]]) -> bool:
    """Even-odd rule for the origin against a projected ring."""
    inside = False
    n = len(xy)
    for i in range(n):
        x1, y1 = xy[i]
        x2, y2 = xy[(i + 1) % n]
        if (y1 > 0) != (y2 > 0):
            x_cross = x1 + (0 - y1) * (x2 - x1) / (y2 - y1)
            if x_cross > 0:
                inside = not inside
    return inside


def _segment_distance(x1, y1, x2, y2) -> float:
    """Distance from the origin to the segment (x1,y1)-(x2,y2)."""
    dx, dy = x2 - x1, y2 - y1
    seg_sq = dx * dx + dy * dy
    if seg_sq == 0:
        return math.hypot(x1, y1)
    s = max(0.0, min(1.0, -(x1 * dx + y1 * dy) / seg_sq))
    return math.hypot(x1 + s * dx, y1 + s * dy)


def edge_distance(center: Station, polygon: CountyPolygon) -> float:
    """Smallest distance from the center to an edge of the projected ring."""
    xy = _project_local(polygon.ring, center.latitude, center.longitude)
    n = len(xy)
    return min(_segment_distance(*xy[i], *xy[(i + 1) % n]) for i in range(n))


def circle_touches_polygon(circle: CatchmentCircle, polygon: CountyPolygon) -> bool:
    """True iff the center lies inside the ring or any edge is within radius."""
    xy = _project_local(polygon.ring, circle.center.latitude, circle.center.longitude)
    if _point_in_ring(xy):
        return True
    return edge_distance(circle.center, polygon) <= circle.radius_m


def oracle_assignment(stations, polygons, radius_m):
    """``assign_counties`` computed pair by pair with the scalar oracle."""
    return {
        s.station_id: frozenset(p.name for p in polygons
                                if circle_touches_polygon(CatchmentCircle(s, radius_m), p))
        for s in stations
    }


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


def wrap_lon(lon: float) -> float:
    return (lon + 180.0) % 360.0 - 180.0


def star_polygon(rng, name, lat, lon, size_deg, n):
    """A ring of ``n`` vertices at sorted angles about (lat, lon), each
    vertex longitude wrapped into [-180, 180)."""
    angles = np.sort(rng.uniform(0.0, 2 * np.pi, n))
    radii = rng.uniform(0.2, 1.0, n) * size_deg
    return CountyPolygon(name, tuple(
        (lat + r * math.sin(a), wrap_lon(lon + r * math.cos(a)))
        for a, r in zip(angles.tolist(), radii.tolist())
    ))


def random_region(rng, lat, lon, n_stations=12, n_polygons=8):
    stations = [Station(f"s{i}", lat + rng.uniform(-0.5, 0.5),
                        wrap_lon(lon + rng.uniform(-0.5, 0.5)))
                for i in range(n_stations)]
    polygons = [star_polygon(rng, f"c{j}", lat + rng.uniform(-0.5, 0.5),
                             lon + rng.uniform(-0.5, 0.5), rng.uniform(0.02, 0.3),
                             int(rng.integers(3, 40)))
                for j in range(n_polygons)]
    return stations, polygons


class TestKernelAgainstOracle:
    """``assign_counties`` decides every pair as the scalar oracle does."""

    @pytest.mark.parametrize("lon", [-105.0, 0.0, 179.8, -179.8, 180.0])
    def test_random_regions(self, rng, lon):
        for _ in range(25):
            stations, polygons = random_region(rng, rng.uniform(-60, 60), lon)
            radius = float(rng.uniform(200.0, 30_000.0))
            assignments, unassigned = assign_counties(stations, polygons, radius)
            assert assignments == oracle_assignment(stations, polygons, radius)
            assert unassigned == tuple(s.station_id for s in stations
                                       if not assignments[s.station_id])

    @pytest.mark.parametrize("lon", [-105.0, 179.95, -179.95])
    def test_circles_that_just_touch_or_just_miss(self, rng, lon):
        checked = 0
        while checked < 60:
            stations, polygons = random_region(rng, rng.uniform(-60, 60), lon, 1, 1)
            station, polygon = stations[0], polygons[0]
            if checked % 2:
                # a box's nearest edge lies on its lat/lon bounds, which the
                # prefilter measures with other rounding
                lat, lon0 = polygon.ring[0]
                half = rng.uniform(0.01, 0.2)
                polygon = square("box", lat - half, lat + half, wrap_lon(lon0 - half),
                                 wrap_lon(lon0 + half))
            if circle_touches_polygon(CatchmentCircle(station, 1e-9), polygon):
                continue  # the center is inside
            d = edge_distance(station, polygon)
            below = float(np.nextafter(d, 0.0))
            for radius, touched in ((d, True), (below, False)):
                assert circle_touches_polygon(CatchmentCircle(station, radius), polygon) == touched
                assignments, _ = assign_counties([station], [polygon], radius)
                assert assignments[station.station_id] == (
                    frozenset({polygon.name}) if touched else frozenset())
            checked += 1

    @settings(max_examples=150, deadline=None)
    @given(lat=st.floats(-80, 80), lon=st.floats(-180, 180),
           dlat=st.floats(-0.2, 0.2), dlon=st.floats(-0.2, 0.2),
           half=st.floats(0.001, 0.1), radius=st.floats(1.0, 20_000.0))
    def test_squares(self, lat, lon, dlat, dlon, half, radius):
        station = Station("s", lat, lon)
        c_lat, c_lon = max(-85.0, min(85.0, lat + dlat)), lon + dlon
        poly = CountyPolygon("c", (
            (c_lat - half, wrap_lon(c_lon - half)), (c_lat - half, wrap_lon(c_lon + half)),
            (c_lat + half, wrap_lon(c_lon + half)), (c_lat + half, wrap_lon(c_lon - half)),
        ))
        assignments, _ = assign_counties([station], [poly], radius)
        assert assignments == oracle_assignment([station], [poly], radius)


class TestAntimeridian:
    def test_county_across_the_antimeridian_is_reached(self):
        # about 1.4 km east of the station, on the other side of 180 degrees
        east = square("east", 51.95, 52.05, -179.99, -179.90)
        station = Station("s", 52.0, 179.99)
        assert assign_counties([station], [east], DEFAULT_RADIUS_M)[0] == {"s": frozenset({"east"})}
        assert edge_distance(station, east) == pytest.approx(1_369.0, abs=5.0)

    def test_mirror_image_is_reached(self):
        west = square("west", 51.95, 52.05, 179.90, 179.99)
        station = Station("s", 52.0, -179.99)
        assert assign_counties([station], [west], DEFAULT_RADIUS_M)[0] == {"s": frozenset({"west"})}

    def test_same_shape_away_from_the_antimeridian(self):
        # the control: the same geometry moved to longitude 10
        east = square("east", 51.95, 52.05, 10.01, 10.10)
        assert assign_counties([Station("s", 52.0, 9.99)], [east], DEFAULT_RADIUS_M)[0] == \
            {"s": frozenset({"east"})}

    def test_far_side_of_the_globe_is_not_reached(self):
        far = square("far", 51.95, 52.05, 0.01, 0.10)
        assignments, unassigned = assign_counties(
            [Station("s", 52.0, 179.99)], [far], DEFAULT_RADIUS_M)
        assert unassigned == ("s",)


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
        with pytest.raises(ParseError, match=r"^stations: bad header \('id', 'lat', 'lon'\)$"):
            load_stations_csv("id,lat,lon\na,1,2\n")
        with pytest.raises(ParseError, match=r"^stations: bad header \(\)$"):
            load_stations_csv("")

    def test_duplicate_station_names_its_line(self):
        text = ("station_id,latitude,longitude,name\na,39.7,-105.0,A\n"
                "b,39.8,-105.1,B\na,39.9,-105.2,A again\n")
        with pytest.raises(ParseError, match="^stations line 4: duplicate station_id 'a'$"):
            load_stations_csv(text)

    @pytest.mark.parametrize("row, message", [
        ("a", "expected 3 or 4 fields, got 1"),
        ("a,39.7", "expected 3 or 4 fields, got 2"),
        ("a,39.7,-105.0,A,extra", "expected 3 or 4 fields, got 5"),
        ("a,north,1,n", "bad number 'north'"),
        ("a,39.7,", "bad number ''"),
        ("a,91.0,0.0,A", "latitude 91.0 outside [-90, 90]"),
        ("a,0.0,-181.0", "longitude -181.0 outside [-180, 180]"),
        ("a,nan,0.0", "bad number 'nan'"),
    ])
    def test_bad_row_names_its_line(self, row, message):
        text = "station_id,latitude,longitude,name\nb,39.8,-105.1,B\n" + row + "\n"
        with pytest.raises(ParseError, match="^" + re.escape(f"stations line 3: {message}")):
            load_stations_csv(text)

    def test_name_is_optional(self):
        text = "station_id,latitude,longitude,name\na,39.7,-105.0\nb,39.8,-105.1,B\n"
        assert load_stations_csv(text) == [Station("a", 39.7, -105.0, ""),
                                           Station("b", 39.8, -105.1, "B")]

    def test_coordinate_bounds(self):
        with pytest.raises(ValueError):
            Station("bad", 91.0, 0.0)
        with pytest.raises(ValueError):
            Station("bad", 0.0, 181.0)

    def test_radius_positive(self):
        poly = square("home", 39.60, 39.80, -105.10, -104.90)
        for radius in (0.0, -1.0):
            with pytest.raises(ValueError, match="radius must be positive"):
                assign_counties([CENTER], [poly], radius)
