"""Exception hierarchy for the toolkit.

All exceptions raised by this package derive from TtcError so callers can
catch the whole family with one handler. A few also derive from ValueError
because they signal malformed arguments rather than geometric conditions.

Geometric conditions (degenerate configurations, stationary points) are
expected outcomes on real data. Batch drivers should catch them per item
and keep going; only InvalidInput indicates caller error.
"""

from __future__ import annotations


class TtcError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(TtcError, ValueError):
    """Malformed argument: non-finite value, bad shape, failed validation."""


class BehindCamera(TtcError, ValueError):
    """Projection requested for a point with Z <= 0."""


class DegenerateGeometry(TtcError):
    """Geometric construction is ill-posed (coincident points, zero-length
    direction, intersection at infinity)."""


class StationaryPoint(TtcError):
    """The tracked point shows no angular motion relative to the epipole.

    This is the constant-bearing case: the point is either static relative
    to the camera or on a direct collision course. Finite time-to-collision
    cannot be computed from a single point track; callers should report the
    classification instead of treating this as a failure.
    """


class ParallelToHorizon(DegenerateGeometry):
    """Flow line is parallel to the horizon; the planar intersection method
    cannot locate the epipole. Fall back to the least-squares or
    three-frame estimators."""


class InsufficientData(TtcError, ValueError):
    """Fewer observations than the operation's minimum."""


class SingularGeometry(DegenerateGeometry):
    """Input set spans no unique solution (all flow lines parallel, all
    epipoles coincident)."""


class DegenerateConfiguration(DegenerateGeometry):
    """Angle configuration outside the solvable domain of the three-frame
    offset estimator (vanishing denominator: uniformly spaced angles)."""


class DegenerateFlow(DegenerateGeometry):
    """Flow vector with zero pixel displacement; it defines no line."""


def _valid_seed(value, name: str) -> int:
    """value as a generator seed; InvalidInput naming name unless it is a
    non-negative integer (numpy rejects a negative seed, and int() would
    silently truncate a fraction)."""
    try:
        seed = int(value)
    except (TypeError, ValueError, OverflowError):
        seed = -1
    if seed < 0 or seed != value:
        raise InvalidInput(f"{name} must be a non-negative integer, got {value!r}")
    return seed
