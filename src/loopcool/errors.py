"""Exception types shared across the package, and the one rule that names a
numerical failure: require_finite, after code that may overflow or meet inf * 0
has run under np.errstate(all="ignore"), the one floating-point mode."""

import numpy as np


class LoopcoolError(Exception):
    """Base class for all package errors."""


class SingularMatrix(LoopcoolError):
    """A resolvent -i omega I - A has an exactly zero LU pivot."""


class NoConvergence(LoopcoolError):
    """LAPACK's eig failed to converge on a drift matrix."""


class DimensionOverflow(LoopcoolError):
    """The RK4 oracle's n^2 lift would exceed its cap, KRON_CAP."""


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


def require_finite(what, **values):
    """Raise FloatingPointError("<what> not finite: <names>"), naming in order each
    of values (a number or an array of them) that holds a NaN or an infinity."""
    bad = [name for name, value in values.items() if not np.isfinite(value).all()]
    if bad:
        raise FloatingPointError("%s not finite: %s" % (what, ", ".join(bad)))
