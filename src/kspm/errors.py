"""Exception types shared across the package."""

from __future__ import annotations


class KSPMError(Exception):
    """Base class for all package-specific errors."""


class NotFireable(KSPMError):
    """A fire was requested at a column whose slope is not above threshold."""


class NonIntegral(KSPMError):
    """An exact integer recurrence produced a non-integer value.

    This means the inputs were not consistent fixed-point data (for
    example a wrong initial shot value or a bad ambiguity resolution).
    """


class Divergence(KSPMError):
    """A reconstruction ran past the provable support bound without closing."""


class NoConvergence(KSPMError):
    """An iterative series hit its term cap before converging."""


class RecurrenceMismatch(KSPMError):
    """Two independent computations of the same trajectory value disagree."""


class InsufficientData(KSPMError):
    """A fit or regression gate was asked for with too few usable points."""


class CapacityError(KSPMError):
    """A requested computation exceeds the supported size limits."""
