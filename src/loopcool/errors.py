"""Exception types shared across the package."""


class LoopcoolError(Exception):
    """Base class for all package errors."""


class SingularMatrix(LoopcoolError):
    """A linear solve hit a pivot below the singularity threshold."""


class NoConvergence(LoopcoolError):
    """An iterative routine ran out of iterations."""


class DimensionOverflow(LoopcoolError):
    """A Kronecker product would exceed the configured dimension cap."""


class BlowUp(LoopcoolError):
    """Time integration diverged (entry magnitude above 1e12)."""


class InvalidSpec(LoopcoolError):
    """Inconsistent or unphysical system specification."""


class Unstable(LoopcoolError):
    """Drift matrix is not Hurwitz; no steady state exists."""

    def __init__(self, msg, abscissa=None):
        super().__init__(msg)
        self.abscissa = abscissa


class ShapeMismatch(LoopcoolError):
    """Array shape inconsistent with the declared mode count."""


class DomainError(LoopcoolError):
    """Operation requested outside its documented validity domain."""


class ConfigError(LoopcoolError):
    """Malformed configuration file or parameter path."""
