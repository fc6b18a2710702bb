"""Exception types shared across the package, and checks of records and sizes."""

import numbers


class FrankMickError(Exception):
    """Base class for all library errors."""


class NonInvertible(FrankMickError):
    """tau cannot be mapped to a finite Frank parameter."""


class ZeroTau(FrankMickError):
    """tau = 0 has no Frank parameter; use the uniform density instead."""


class NonPositiveDensity(FrankMickError):
    """A log-density stencil hit a nonpositive density value."""


class ThetaOutOfSupport(FrankMickError, ValueError):
    """|theta| is beyond the range the closed-form evaluators support."""


class GridMismatch(FrankMickError):
    """Two checkerboard objects with different grid sizes were combined."""


class NotConverged(FrankMickError):
    """Sinkhorn scaling failed to reach the marginal tolerance."""


class DivergenceDetected(FrankMickError):
    """The fixed-point iteration underflowed or stopped contracting."""


class TauInfeasible(FrankMickError):
    """|target tau| is at or beyond the maximum attainable on the grid."""


class NoConvergence(FrankMickError):
    """Solver exhausted its iteration limits.

    Attributes
    ----------
    report : SolverReport
        Best iterate found before giving up.
    """

    def __init__(self, msg, report=None):
        super().__init__(msg)
        self.report = report


def _require_fields(obj, names, what):
    """Raise ValueError naming the first of names the JSON object obj lacks."""
    for name in names:
        if not isinstance(obj, dict) or name not in obj:
            raise ValueError(f"{what} has no field {name!r}")


def _require_size(value, name, least=1):
    """value as a Python int; raise ValueError naming name unless value is
    an integer >= least: numpy integers pass, bool and float do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, not {value!r}")
    return int(value)
