"""Station catchment circles and county assignment.

Polygon tests run on a local equirectangular projection about the circle
center, which is accurate at the few-kilometer scale catchment radii live
at.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DegeneratePolygon, ParseError, UnsupportedGeometry
from .frames import _csv_rows

EARTH_RADIUS_M = 6_371_000.0


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


# Vertex rows one array pass of the edge test holds, so that memory stays
# bounded when a large radius lets most (station, county) pairs through.
_CHUNK_VERTICES = 1 << 18


def _wrap_degrees(delta: np.ndarray) -> np.ndarray:
    """Map longitude differences in [-360, 360] into [-180, 180).

    A difference already in range keeps its bits, so stations away from the
    antimeridian project exactly as without the wrap.
    """
    return np.where(delta >= 180.0, delta - 360.0, np.where(delta < -180.0, delta + 360.0, delta))


def assign_counties(
    stations: Iterable[Station],
    polygons: Sequence[CountyPolygon],
    radius_m: float,
) -> tuple[dict[str, frozenset[str]], tuple[str, ...]]:
    """Map each station to the counties its catchment circle touches.

    A circle touches a county when its center lies inside the ring (even-odd
    rule) or some ring edge comes within the radius. Both tests run on an
    equirectangular projection about the center, with longitude differences
    wrapped across the antimeridian. A county whose lat/lon box, widened by
    the radius, cannot reach a station is skipped for it; the remaining
    pairs are tested with array operations over all their edges.

    Returns the per-station county sets plus the ids of stations whose
    circle touched nothing (reported, not fatal).
    """
    stations = list(stations)
    if not stations or not polygons:
        raise ValueError("need at least one station and one polygon")
    if radius_m <= 0:
        raise ValueError("radius must be positive")
    centers = np.array([(s.latitude, s.longitude) for s in stations])
    cos0 = np.array([math.cos(math.radians(s.latitude)) for s in stations])
    rings = [np.array(poly.ring) for poly in polygons]
    # The box bound and the edge distances round differently; the slack
    # keeps the prefilter from skipping a pair that the edge test touches.
    bound = _box_distance(centers, cos0, rings)
    pair_station, pair_poly = np.nonzero(~(bound > radius_m * (1 + 1e-9) + 1e-6))

    step = max(1, _CHUNK_VERTICES // max(len(r) for r in rings))
    touched = np.concatenate([np.zeros(0, dtype=bool)] + [
        _touches(centers[pair_station[i:i + step]], cos0[pair_station[i:i + step]],
                 rings, pair_poly[i:i + step], radius_m)
        for i in range(0, len(pair_poly), step)
    ])
    found: list[list[str]] = [[] for _ in stations]
    for s, p in zip(pair_station[touched].tolist(), pair_poly[touched].tolist()):
        found[s].append(polygons[p].name)
    assignments: dict[str, frozenset[str]] = {}
    unassigned: list[str] = []
    for station, names in zip(stations, found):
        assignments[station.station_id] = frozenset(names)
        if not names:
            unassigned.append(station.station_id)
    return assignments, tuple(unassigned)


def _box_distance(centers: np.ndarray, cos0: np.ndarray, rings) -> np.ndarray:
    """(stations x polygons) lower bound, in projected meters, on the
    distance from each station to each polygon: the distance to the
    polygon's lat/lon box."""
    lat0, lon0 = centers[:, :1], centers[:, 1:]
    lat_lo, lat_hi, lon_lo, lon_hi = np.array(
        [(r[:, 0].min(), r[:, 0].max(), r[:, 1].min(), r[:, 1].max()) for r in rings]
    ).T
    dlat = np.maximum(np.maximum(lat_lo - lat0, lat0 - lat_hi), 0.0)
    # The box's longitudes as an arc running east from `west`, relative to
    # the station, in the wrapped differences the projection uses.
    west = _wrap_degrees(lon_lo - lon0)
    east = west + (lon_hi - lon_lo)
    # An arc over the station's meridian, or over the opposite one (where a
    # wrapped ring jumps from -180 to 180), bounds nothing in x.
    dlon = np.where(west > 0.0, np.where(east >= 180.0, 0.0, west), np.maximum(-east, 0.0))
    meters = EARTH_RADIUS_M * math.pi / 180.0
    return np.hypot(meters * dlon * cos0[:, None], meters * dlat)


def _touches(centers, cos0, rings, pair_poly, radius_m) -> np.ndarray:
    """Whether the circle about each center touches the paired polygon,
    decided as the scalar test decides it: the same float operations in the
    same order on every edge."""
    n_vertices = np.array([len(r) for r in rings])
    first = np.concatenate([[0], np.cumsum(n_vertices)[:-1]])
    ring_lat, ring_lon = np.concatenate(rings).T
    # One row per vertex of each pair's ring, with the vertex that follows it.
    counts = n_vertices[pair_poly]
    pair = np.repeat(np.arange(len(pair_poly)), counts)
    offset = np.arange(len(pair)) - np.repeat(np.cumsum(counts) - counts, counts)
    start = first[pair_poly][pair]
    lat0, lon0, cos = centers[pair, 0], centers[pair, 1], cos0[pair]

    def project(vertex):
        x = EARTH_RADIUS_M * np.radians(_wrap_degrees(ring_lon[vertex] - lon0)) * cos
        y = EARTH_RADIUS_M * np.radians(ring_lat[vertex] - lat0)
        return x, y

    x1, y1 = project(start + offset)
    x2, y2 = project(start + (offset + 1) % counts[pair])
    dx, dy = x2 - x1, y2 - y1

    # even-odd rule for the center: edges that cross the positive x axis
    crossing = np.flatnonzero((y1 > 0) != (y2 > 0))
    x_cross = x1[crossing] + (0 - y1[crossing]) * dx[crossing] / dy[crossing]
    inside = np.bincount(pair[crossing[x_cross > 0]], minlength=len(pair_poly)) % 2 == 1

    # distance from the center to each edge
    seg_sq = dx * dx + dy * dy
    s = np.zeros_like(seg_sq)
    edge = seg_sq != 0
    s[edge] = np.clip(-(x1[edge] * dx[edge] + y1[edge] * dy[edge]) / seg_sq[edge], 0.0, 1.0)
    px, py = x1 + s * dx, y1 + s * dy
    distance = np.hypot(px, py)
    # np.hypot and math.hypot may differ in the last bit, so the distances
    # near the radius are taken again with math.hypot, as the scalar test does.
    for i in np.flatnonzero(np.abs(distance - radius_m) <= 1e-9 * radius_m).tolist():
        distance[i] = math.hypot(px[i], py[i])
    near = np.zeros(len(pair_poly), dtype=bool)
    near[pair[distance <= radius_m]] = True
    return inside | near


def load_stations_csv(text: str) -> list[Station]:
    """Read stations from a ``station_id,latitude,longitude,name`` CSV.

    The name is optional, so a row has 3 or 4 fields.

    Raises
    ------
    ParseError
        For a bad header, or naming the line of a row that
        ``frames._csv_rows`` refuses (another field count, a station seen
        before, a coordinate that is not a finite number) or that lies out
        of range.
    """
    stations = []
    for line, cells, (latitude, longitude) in _csv_rows(
            text, "stations", ("station_id", "latitude", "longitude", "name"), optional=1):
        try:
            stations.append(Station(cells[0], latitude, longitude, *cells[3:]))
        except ValueError as exc:
            raise ParseError(f"stations line {line}: {exc}") from None
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
