"""Exception types raised by the microloc package.

Every error raised on a documented failure path derives from MicrolocError,
so callers (and the CLI) can catch one base class for "bad input or bad data"
and let genuine bugs propagate.
"""

from __future__ import annotations


class MicrolocError(Exception):
    """Base class for all anticipated failures in this package."""


# --- frame decoding ---

class FrameTooShort(MicrolocError):
    """Payload is shorter than the fixed layout requires."""


class FrameTooLong(MicrolocError):
    """Payload has trailing bytes beyond the fixed layout."""


class UnknownProtocol(MicrolocError):
    """Leading bytes match none of the supported beacon formats."""


class MalformedFrame(MicrolocError):
    """Right length and preamble, but a field violates the layout rules."""


# --- traces ---

class TraceFormatError(MicrolocError):
    """A serialized trace could not be parsed; message names the spot."""


class EmptyTrace(MicrolocError):
    """An operation needed at least one sample and got none."""


class InsufficientSamples(MicrolocError):
    """More samples are required than were provided."""


# --- ranging ---

class InvalidDistance(MicrolocError):
    """Distance argument outside the physically meaningful range."""


class InvalidTime(MicrolocError):
    """Negative or non-finite time of flight."""


# --- positioning ---

class DegenerateGeometry(MicrolocError):
    """Anchor layout admits no unique solution (e.g. collinear anchors)."""


class ArityError(MicrolocError):
    """Wrong number of anchors, measurements, or neighbors."""


class NoConvergence(MicrolocError):
    """Iterative solver exhausted its iteration budget.

    The iteration count is kept on the exception for diagnostics.
    """

    def __init__(self, iterations: int):
        self.iterations = iterations
        super().__init__(f"no convergence after {iterations} iterations")


class NoIntersection(MicrolocError):
    """Bearing rays are parallel or meet behind an anchor."""


class NoAnchors(MicrolocError):
    """An anchor list was empty."""


class NoSurveys(MicrolocError):
    """Fingerprint construction got zero survey points."""


class NoComparableEntries(MicrolocError):
    """Observation shares no beacon with any fingerprint entry."""


# --- simulation / evaluation ---

class InvalidScenario(MicrolocError):
    """Scenario violates its structural rules (schedule order, bounds)."""


class EmptyInput(MicrolocError):
    """A statistic was requested over an empty collection."""
