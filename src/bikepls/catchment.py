"""Station catchment circles and county assignment.

Distances are great-circle; polygon tests run on a local equirectangular
projection about the circle center, which is accurate at the few-kilometer
scale catchment radii live at.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DegeneratePolygon, ParseError, UnsupportedGeometry

EARTH_RADIUS_M = 6_371_000.0

# Conventional bicycle catchment: 3 miles. The source material cites the
# transit-agency catchment convention without printing a radius, so this is
# a documented default, not a derived constant.
DEFAULT_RADIUS_M = 4_828.0


@dataclass(frozen=True)
class Station:
    station_id: str
    latitude: float
    longitude: float
    name: str = ""

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude {self.latitude} outside [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude {self.longitude} outside [-180, 180]")


@dataclass(frozen=True)
class CatchmentCircle:
    center: Station
    radius_m: float

    def __post_init__(self):
        if self.radius_m <= 0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True)
class CountyPolygon:
    """A county outer ring as (lat, lon) vertices, implicitly closed."""

    name: str
    ring: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.ring) < 3:
            raise DegeneratePolygon(
                f"county {self.name!r} has {len(self.ring)} vertices"
            )
        if self.ring[0] == self.ring[-1]:
            raise ValueError("ring closure is implicit; drop the repeated vertex")


def _project_local(ring, lat0: float, lon0: float) -> list[tuple[float, float]]:
    """Equirectangular projection (meters) about a reference point."""
    cos0 = math.cos(math.radians(lat0))
    return [
        (
            EARTH_RADIUS_M * math.radians(lon - lon0) * cos0,
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


def circle_touches_polygon(circle: CatchmentCircle, polygon: CountyPolygon) -> bool:
    """True iff the center lies inside the ring or any edge is within radius."""
    if len(polygon.ring) < 3:
        raise DegeneratePolygon(f"county {polygon.name!r} has too few vertices")
    xy = _project_local(polygon.ring, circle.center.latitude, circle.center.longitude)
    if _point_in_ring(xy):
        return True
    n = len(xy)
    for i in range(n):
        x1, y1 = xy[i]
        x2, y2 = xy[(i + 1) % n]
        if _segment_distance(x1, y1, x2, y2) <= circle.radius_m:
            return True
    return False


def assign_counties(
    stations: Iterable[Station],
    polygons: Sequence[CountyPolygon],
    radius_m: float = DEFAULT_RADIUS_M,
) -> tuple[dict[str, frozenset[str]], tuple[str, ...]]:
    """Map each station to the counties its catchment circle touches.

    Returns the per-station county sets plus the ids of stations whose
    circle touched nothing (reported, not fatal).
    """
    stations = list(stations)
    if not stations or not polygons:
        raise ValueError("need at least one station and one polygon")
    assignments: dict[str, frozenset[str]] = {}
    unassigned: list[str] = []
    for station in stations:
        circle = CatchmentCircle(station, radius_m)
        touched = frozenset(
            poly.name for poly in polygons if circle_touches_polygon(circle, poly)
        )
        assignments[station.station_id] = touched
        if not touched:
            unassigned.append(station.station_id)
    return assignments, tuple(unassigned)


def load_stations_csv(text: str) -> list[Station]:
    """Read stations from a ``station_id,latitude,longitude,name`` CSV."""
    import csv
    import io

    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader))
    if header != ("station_id", "latitude", "longitude", "name"):
        raise ValueError(f"bad stations header: {header}")
    stations = []
    seen: set[str] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if row[0] in seen:
            raise ParseError(f"stations line {lineno}: duplicate station {row[0]!r}")
        seen.add(row[0])
        stations.append(
            Station(
                station_id=row[0],
                latitude=float(row[1]),
                longitude=float(row[2]),
                name=row[3] if len(row) > 3 else "",
            )
        )
    return stations


def load_county_polygons(text: str) -> list[CountyPolygon]:
    """Read a GeoJSON FeatureCollection of named Polygon features.

    Only simple polygons are accepted; features with interior rings
    (holes) are rejected outright rather than silently approximated.
    """
    doc = json.loads(text)
    if doc.get("type") != "FeatureCollection":
        raise ValueError("expected a GeoJSON FeatureCollection")
    polygons = []
    for feature in doc.get("features", []):
        geometry = feature.get("geometry", {})
        name = feature.get("properties", {}).get("name")
        if name is None:
            raise ValueError("polygon feature is missing a 'name' property")
        if geometry.get("type") != "Polygon":
            raise UnsupportedGeometry(
                f"county {name!r}: only Polygon geometry is supported"
            )
        rings = geometry.get("coordinates", [])
        if len(rings) != 1:
            raise UnsupportedGeometry(
                f"county {name!r} has interior rings; holes are not supported"
            )
        # GeoJSON stores [lon, lat]; the ring may repeat the first vertex.
        coords = [(lat, lon) for lon, lat in rings[0]]
        if len(coords) > 1 and coords[0] == coords[-1]:
            coords = coords[:-1]
        polygons.append(CountyPolygon(name=name, ring=tuple(coords)))
    return polygons
