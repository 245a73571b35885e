"""Exception types shared across the package."""


class BikeplsError(Exception):
    """Base class for all package-specific errors."""


# --- frame construction ---

class ZeroBaseline(BikeplsError):
    """A change-rate denominator was zero; the station-period is unusable."""


class EmptyPeriod(BikeplsError):
    """A period window contains no observations for a station."""


class ZeroVariance(BikeplsError):
    """A column is constant and cannot be standardized."""


class EmptyHouseholds(BikeplsError):
    """A weighted average was requested over zero households."""


class NonFiniteColumn(BikeplsError):
    """A column's mean or standard deviation overflows a double."""


class ZeroFemale(BikeplsError):
    """Male/female ratio undefined because the female count is zero."""


class InvalidProfile(BikeplsError):
    """Catchment aggregates fall outside a profile's domain (no men, say)."""


class TooFewStations(BikeplsError):
    """An analysis table holds fewer stations than a fit needs."""


# --- regression ---

class TooManyComponents(BikeplsError):
    """More latent factors requested than the data can support."""


class ShapeMismatch(BikeplsError):
    """Input dimensions do not match the fitted model."""


class InvalidModel(BikeplsError):
    """A model read from a document holds numbers no fit produces."""


# --- geometry ---

class DegeneratePolygon(BikeplsError):
    """A polygon has fewer than three vertices."""


class UnsupportedGeometry(BikeplsError):
    """A geometry feature uses an unsupported shape (e.g. holes)."""


# --- ingestion ---

class NetworkError(BikeplsError):
    """A fetch failed after the configured number of retries."""


class ParseError(BikeplsError):
    """Input bytes could not be parsed; the message names the location."""


class CacheCorrupt(BikeplsError):
    """A cache entry failed its checksum and must be refetched."""


class MissingCounty(BikeplsError):
    """A requested county is absent from a census table."""


class CategoryCountMismatch(BikeplsError):
    """A census table has the wrong number of categories for a county."""


# --- reporting ---

class IncompleteBundle(BikeplsError):
    """A report bundle is missing one or more periods."""


class StaleTable(BikeplsError):
    """The analysis table an analysis document names is gone or has changed."""
