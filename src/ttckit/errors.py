"""Exception hierarchy and per-row reason codes for the toolkit.

All exceptions raised by this package derive from TtcError so callers can
catch the whole family with one handler. A few also derive from ValueError
because they signal malformed arguments rather than geometric conditions.

Geometric conditions (degenerate configurations, stationary points) are
expected outcomes on real data, so kernels return an int8 reason code per
row (0 for a valid row), never an exception. _REASONS maps a code to its
exception class and message template; _reason_error alone turns a code
into text, from plain Python values, for the one-row APIs' exceptions and
the messages of result documents. Only InvalidInput indicates caller error.
Each public constructor and function checks an input value by one rule of
its kind, whatever the entry (fileio.read_scenario converts nothing): _real
a real, _count a count or a seed, camera._vector a fixed-length vector,
camera._rows an array of points. Messages print Python values (_plain),
never numpy's.
"""

from __future__ import annotations

import math


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


# The thresholds that reason messages quote.
# Angular tolerance below which two image lines count as parallel.
# Intersection error grows like 1 / sin(angle), so a floor is required.
EPS_PARALLEL_DEG = 0.5
# Relative floor on the angular motion |tan(beta) - tan(alpha)| of a
# pair; below it the pair is constant bearing. The three-frame offset
# fit holds its denominator to the same floor.
_EPS_TAN = 1e-12

# Reason codes: ttc._decompose's in order of precedence, then the other kernels'.
_ZERO_FLOW, _COINCIDENT, _CONSTANT_BEARING = 1, 2, 3
(_ZERO_DISPLACEMENT, _PARALLEL_TO_HORIZON, _FEW_FRAMES, _UNIFORM_ANGLES, _AT_INFINITY,
 _TTC_UNDEFINED, _FEW_FLOWS, _ALL_PARALLEL, _NOT_FINITE) = range(4, 13)

# code: (exception class, message template); a template's fields name
# columns that the kernel giving the code returns beside it
_REASONS = {
    _ZERO_FLOW: (StationaryPoint, "zero pixel displacement between frames"),
    _COINCIDENT: (DegenerateGeometry, "epipole coincides with a track point"),
    _CONSTANT_BEARING: (StationaryPoint, "angular motion below threshold"),
    _ZERO_DISPLACEMENT: (DegenerateFlow, "zero displacement at pixel {pixel}"),
    _PARALLEL_TO_HORIZON: (
        ParallelToHorizon, f"flow direction {{direction}} within {EPS_PARALLEL_DEG} deg of the horizon"
    ),
    _FEW_FRAMES: (InsufficientData, "need at least 3 frames, got {frames}"),
    _UNIFORM_ANGLES: (DegenerateConfiguration, f"offset denominator {{denominator:.3e}} below {_EPS_TAN:.3e}"),
    _AT_INFINITY: (DegenerateGeometry, "angle {angle} maps to a point at infinity on the line"),
    _TTC_UNDEFINED: (DegenerateConfiguration, "corrected epipole leaves TTC undefined"),
    _FEW_FLOWS: (InsufficientData, "need at least 2 flows, got {flows}"),
    _ALL_PARALLEL: (SingularGeometry, "all flow lines parallel; epipole unconstrained"),
    _NOT_FINITE: (DegenerateGeometry, "collision-plane values overflow float64"),
}
# a result entry's status: zero flow and constant bearing are stationary
_STATUS = {
    code: "stationary" if error in (StationaryPoint, DegenerateFlow) else f"degenerate:{error.__name__}"
    for code, (error, _) in _REASONS.items()
}


def _reason_error(code: int, columns: dict, i: int = 0) -> TtcError:
    """The exception of row i, whose reason is code, its message the
    code's template filled from columns (column name: the rows' values),
    a numpy value in its Python form (_plain)."""
    error, template = _REASONS[code]
    return error(template.format_map({name: _plain(column[i]) for name, column in columns.items()}))


def _plain(value):
    """value in its Python form: a numpy value's .tolist(), since numpy's
    own print cuts digits and follows process-wide print options."""
    return value.tolist() if hasattr(value, "tolist") else value


def _whole(value) -> int | None:
    """value as an int when it is a whole number, else None (a fraction,
    NaN, an infinity, a string, None); never raises. int() alone would
    truncate a fraction and raise on NaN or an infinity."""
    try:
        whole = int(value)
        return whole if whole == value else None
    except (TypeError, ValueError, OverflowError):
        return None


def _real(value, name: str, *, gt=None, ge=None) -> float:
    """value, whatever float() takes (a numeric string too), as a finite
    float > gt or >= ge when one is given; else InvalidInput naming name,
    or naming it too large for float64, digits unechoed, if float() overflows."""
    try:
        real = float(value)
    except OverflowError:
        raise InvalidInput(f"{name} is too large for float64") from None
    except (TypeError, ValueError):
        real = math.nan
    if not math.isfinite(real):
        raise InvalidInput(f"{name} must be finite, got {_plain(value)!r}")
    if (gt is not None and real <= gt) or (ge is not None and real < ge):
        bound = f"> {gt}" if gt is not None else f">= {ge}"
        raise InvalidInput(f"{name} must be {bound}, got {_plain(value)!r}")
    return real


def _count(value, name: str, low: int) -> int:
    """value, a whole number (_whole), as an int >= low, else InvalidInput
    naming name; a generator seed has low 0, as numpy rejects a negative one."""
    count = _whole(value)
    if count is None or count < low:
        what = "a non-negative integer" if low == 0 else f"an integer >= {low}"
        raise InvalidInput(f"{name} must be {what}, got {_plain(value)!r}")
    return count
