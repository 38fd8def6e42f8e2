"""Exception types shared across the package; require_finite, the one rule that names a
numerical failure after code has run under np.errstate(all="ignore"), the one
floating-point mode; and the closed forms' one power-of-two scaling, scaled/unscaled."""

import math

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


def scaled(values):
    """(values scaled by the power of two 2^-e that brings max |v| into [0.5, 1), e):
    exact where every step is a normal float, so a quotient of scaled values keeps
    its bits, and no square of one overflows or underflows to 0."""
    e = math.frexp(max(map(abs, values)))[1]
    return [math.ldexp(v, -e) for v in values], e


def unscaled(values, e):
    """values scaled back by 2^e, exactly; one beyond the float range is inf, unwarned."""
    with np.errstate(all="ignore"):
        return np.ldexp(values, e)
