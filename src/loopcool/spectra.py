"""Frequency-domain input-output analysis.

U(w) = Gamma (-i w I - A)^{-1} Gamma - I maps input noise operators to output
fields; transmittances sum the signal and conjugate-channel contributions,
and the relative scattering rate Lambda_vw = (T_vw - T_wv)/T_max quantifies
nonreciprocity of the phonon transfer.

`scattering_matrix`, `transmittances` and `scan_point` take a scalar probe
frequency or a 1-D array of them.  An array gives a stack along the leading
axis, solved by one batched LAPACK call; a scalar is the same computation for
one frequency.  The resolvent is meant to be taken behind the stability
verdict: for a stable drift every eigenvalue of -i w I - A has modulus at
least |Re lambda| > 0, so it is nonsingular at every real w.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatch, SingularMatrix


@dataclass(frozen=True)
class Cooperativities:
    c1: float
    c2: float
    c3: float

    @property
    def pi_ratio(self):
        if self.c1 * self.c2 == 0.0:
            raise DomainError("pi_ratio undefined when C1*C2 = 0")
        return self.c3 / (self.c1 * self.c2)

    @classmethod
    def from_spec(cls, spec):
        if spec.n_mech != 2:
            raise DomainError("cooperativities are defined for two mechanical modes")
        g = spec.drive.g_lin
        c1 = abs(g[0]) ** 2 / (spec.gamma[0] * spec.kappa)
        c2 = abs(g[1]) ** 2 / (spec.gamma[1] * spec.kappa)
        c3 = spec.eta[0] ** 2 / (spec.gamma[0] * spec.gamma[1])
        return cls(c1=c1, c2=c2, c3=c3)


@dataclass
class ScatteringPoint:
    """U, T and Lambda at omega; with an array omega each is a stack along axis 0."""

    omega: float
    u: np.ndarray
    t: np.ndarray
    lambda_rel: np.ndarray


def _damping_diag(spec):
    g = np.sqrt(2.0 * np.array([spec.kappa] + list(spec.gamma)))
    return np.diag(np.concatenate([g, g]))


def scattering_matrix(drift, omega):
    """U(w) in the [da, db_1..db_N, conjugates] ordering.

    omega is a scalar, giving one (2N+2, 2N+2) matrix, or a 1-D array, giving
    a (len(omega), 2N+2, 2N+2) stack from one batched solve.  Raises
    SingularMatrix only when LAPACK finds an exactly zero pivot: unlike
    `numkit.solve_linear`, an LU pivot below `numkit.PIVOT_RTOL` times the
    largest entry of -i w I - A that is not exactly zero raises nothing.  A
    stable drift (see `steadystate.stability_check`) keeps the resolvent
    nonsingular at every real omega, so check stability first.  A NaN or
    infinite omega raises DomainError.
    """
    if not np.all(np.isfinite(omega)):
        raise DomainError("probe frequencies must be finite")
    a = drift.a
    eye = np.eye(a.shape[0])
    gam = _damping_diag(drift.spec)
    lhs = -1j * np.multiply.outer(omega, eye) - a
    try:
        # an explicit stack of right-hand sides: numpy < 2 would read a 2-D b
        # against a 3-D lhs as a stack of vectors
        core = np.linalg.solve(lhs, np.broadcast_to(gam, lhs.shape))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("resolvent -i w I - A is singular: %s" % exc) from None
    return gam @ core - eye


def transmittances(u, n_mech):
    """T_vw = |U_vw|^2 + |U_{v,w+N+1}|^2 over the {a, b_1..b_N} channels.

    u is one U matrix or a stack of them along the leading axes.
    """
    dim = n_mech + 1
    if u.shape[-2:] != (2 * dim, 2 * dim):
        raise ShapeMismatch("U shape %s does not match n_mech=%d" % (u.shape, n_mech))
    return np.abs(u[..., :dim, :dim]) ** 2 + np.abs(u[..., :dim, dim:]) ** 2


def t_max(coop):
    """Analytic resonant maximum of the mechanical transmittance."""
    num = 4.0 * (math.sqrt(coop.c1 * coop.c2) + math.sqrt(coop.c3)) ** 2
    den = (coop.c1 + coop.c2 + coop.c3 + 1.0) ** 2
    return num / den


def lambda_analytic(coop, theta):
    """Relative resonant scattering rate b_1 -> b_2, closed form.

    Valid at the resonant probe w = w_m with Delta = w_1 = w_2.
    """
    pi = coop.pi_ratio  # raises DomainError when C1*C2 = 0
    lead = 4.0 * math.sqrt(pi) * math.sin(theta) / (1.0 + math.sqrt(pi)) ** 2
    corr = 1.0 + (4.0 * pi * math.cos(theta) ** 2
                  / ((coop.c1 + coop.c2 + 1.0) / (coop.c1 * coop.c2) + pi) ** 2)
    return lead / corr


def lambda_numeric(drift, omega, coop):
    """Full matrix of relative scattering rates at probe frequency omega.

    The resonant analytic maximum is used as the normalizer at every omega
    (its omega-dependence is not specified; the choice is recorded in CLI
    output metadata).  Off the validity domain |Lambda| may slightly
    exceed 1.
    """
    return scan_point(drift, omega, coop).lambda_rel


def scan_point(drift, omega, coop=None):
    """U, T and Lambda at a scalar omega, or stacked over a 1-D array of them.

    Same contract as `scattering_matrix`; coop defaults to the spec's.
    """
    if coop is None:
        coop = Cooperativities.from_spec(drift.spec)
    u = scattering_matrix(drift, omega)
    t = transmittances(u, drift.spec.n_mech)
    lam = (t - np.swapaxes(t, -1, -2)) / t_max(coop)
    return ScatteringPoint(omega=omega, u=u, t=t, lambda_rel=lam)
