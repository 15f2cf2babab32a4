"""Exception types shared across the package."""

from __future__ import annotations


class MeasureError(Exception):
    """Base class for errors raised by measure construction or calculus."""


class UnrepresentableDensity(MeasureError):
    """An operation would need a density outside the term grammar."""


class SignChangeIsolationFailure(MeasureError):
    """Sign pattern of a density could not be certified at the configured
    resolution (e.g. infinitely many sign changes on an unbounded segment)."""


class DivergentTransform(MeasureError):
    """Laplace transform requested at a point where it does not converge."""


class NonIntegrableTail(MeasureError, ArithmeticError):
    """Requested an integral over an unbounded interval that diverges."""


class ZeroTransform(MeasureError):
    """A rescaling would divide by a vanishing transform value."""


class SignChangeNearZero(MeasureError):
    """Transform changes sign (or vanishes) along the small-argument grid,
    so no regular-variation index can be read off."""


class SignChangeNearInfinity(MeasureError):
    """Distribution function changes sign (or vanishes) along the
    large-argument grid, so no regular-variation index can be read off."""


class ScenarioError(Exception):
    """Base class for scenario loading/validation problems."""


class ScenarioParseError(ScenarioError):
    """Scenario file is not valid JSON."""


class ScenarioValidationError(ScenarioError, ValueError):
    """Scenario JSON, or a measure object in the wire format, is well-formed
    but violates the schema.

    Carries the dotted path of the offending field.  It is a ValueError
    too, which is what `SignedMeasure.from_dict` has always raised.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
