"""Frequency-domain input-output analysis.

U(w) = Gamma (-i w I - A)^{-1} Gamma - I maps input noise operators to output
fields; transmittances sum the signal and conjugate-channel contributions,
and the relative scattering rate Lambda_vw = (T_vw - T_wv)/T_max quantifies
nonreciprocity of the phonon transfer.  Gamma^2 = -2 Re diag A: Re A_jj is
exactly -kappa or -gamma_j under every approximation, so U needs A alone.
`Cooperativities.from_spec` takes any SystemSpec: model.to_linearized
linearizes a Physical drive.

`scattering_matrix`, `transmittances` and `scan_point` take a scalar probe
frequency or a 1-D array of them.  An array gives a stack along the leading
axis, solved by one batched LAPACK call; a scalar is the same computation for
one frequency.  `scan_point` takes its caller's Cooperativities, for Lambda's
normalizer t_max.  The resolvent is meant to be taken behind the stability
verdict: for a stable drift every eigenvalue of -i w I - A has modulus at
least |Re lambda| > 0, so it is nonsingular at every real w.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatch, SingularMatrix, require_finite
from .model import to_linearized


@dataclass(frozen=True)
class Cooperativities:
    c1: float
    c2: float
    c3: float

    @property
    def pi_ratio(self):
        if self.c1 == 0.0 or self.c2 == 0.0:
            raise DomainError("pi_ratio undefined when C1*C2 = 0")
        if self.c1 * self.c2 == 0.0:  # two subnormal cooperativities: a numerical failure
            raise FloatingPointError("pi_ratio = C3/(C1*C2): C1*C2 underflows to 0")
        pi = self.c3 / (self.c1 * self.c2)
        require_finite("cooperativities", pi_ratio=pi)
        return pi

    @classmethod
    def from_spec(cls, spec):
        if spec.n_mech != 2:
            raise DomainError("cooperativities are defined for two mechanical modes")
        g = to_linearized(spec).drive.g_lin
        # products of quotients: a product of rates such as gamma_1 gamma_2 underflows
        # to 0 at rates ~ 1e-300, and a float ** raises OverflowError
        c1, c2 = ((g[j] / spec.gamma[j]) * (g[j] / spec.kappa) for j in (0, 1))
        c3 = (spec.eta[0] / spec.gamma[0]) * (spec.eta[0] / spec.gamma[1])
        require_finite("cooperativities", C1=c1, C2=c2, C3=c3)
        return cls(c1=c1, c2=c2, c3=c3)


@dataclass
class ScatteringPoint:
    """U, T and Lambda at omega; with an array omega each is a stack along axis 0."""

    omega: float
    u: np.ndarray
    t: np.ndarray
    lambda_rel: np.ndarray


def scattering_matrix(drift, omega):
    """U(w) in the [da, db_1..db_N, conjugates] ordering, from drift.a alone.

    omega is a scalar, giving one (2N+2, 2N+2) matrix, or a 1-D array, giving
    a (len(omega), 2N+2, 2N+2) stack from one batched solve.  Raises
    SingularMatrix only when LAPACK finds an exactly zero pivot.  A stable
    drift (see `steadystate.stability_check`) keeps the resolvent
    nonsingular at every real omega, so check stability first.  A NaN or
    infinite omega raises DomainError.
    """
    if not np.all(np.isfinite(omega)):
        raise DomainError("probe frequencies must be finite")
    a = drift.a
    eye = np.eye(a.shape[0])
    g = np.sqrt(-2.0 * a.diagonal().real)  # Gamma's diagonal, in the ordering of A
    lhs = -1j * np.multiply.outer(omega, eye) - a
    try:
        # an explicit stack of right-hand sides: numpy < 2 would read a 2-D b
        # against a 3-D lhs as a stack of vectors
        core = np.linalg.solve(lhs, np.broadcast_to(np.diag(g), lhs.shape))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("resolvent -i w I - A is singular: %s" % exc) from None
    return g[:, None] * core - eye  # Gamma @ core, as a row scaling


def transmittances(u, n_mech):
    """T_vw = |U_vw|^2 + |U_{v,w+N+1}|^2 over the {a, b_1..b_N} channels.

    u is one U matrix or a stack of them along the leading axes.
    """
    dim = n_mech + 1
    if u.shape[-2:] != (2 * dim, 2 * dim):
        raise ShapeMismatch("U shape %s does not match n_mech=%d" % (u.shape, n_mech))
    return np.abs(u[..., :dim, :dim]) ** 2 + np.abs(u[..., :dim, dim:]) ** 2


def t_max(coop):
    """Analytic resonant maximum of the mechanical transmittance,
    4 (sqrt(C1 C2) + sqrt(C3))^2 / (C1 + C2 + C3 + 1)^2.  Each term is first
    scaled by the power of two 2^-e that brings C1 + C2 + C3 + 1 into [0.5, 1):
    exact where every step is a normal float, and no product or square overflows."""
    den = coop.c1 + coop.c2 + coop.c3 + 1.0
    e = math.frexp(den)[1]
    c1, c2, den = (math.ldexp(c, -e) for c in (coop.c1, coop.c2, den))
    num = math.sqrt(c1 * c2) + math.ldexp(math.sqrt(coop.c3), -e)
    return 4.0 * (num * num) / (den * den)


def lambda_analytic(coop, theta):
    """Relative resonant scattering rate b_1 -> b_2, closed form.

    Valid at the resonant probe w = w_m with Delta = w_1 = w_2.
    """
    pi = coop.pi_ratio  # raises DomainError when C1 or C2 = 0
    root, cos, total = math.sqrt(pi), math.cos(theta), coop.c1 + coop.c2 + coop.c3 + 1.0
    lead = 4.0 * root * math.sin(theta) / ((1.0 + root) * (1.0 + root))
    # 4 Pi cos^2 / ((C1 + C2 + 1)/(C1 C2) + Pi)^2 = 4 cos^2 C3 (C1/total)(C2/total): no
    # square to overflow (a float ** raises OverflowError) and no C1 C2 to divide by
    corr = 1.0 + 4.0 * cos * cos * coop.c3 * (coop.c1 / total) * (coop.c2 / total)
    return lead / corr


def lambda_numeric(drift, omega, coop):
    """Full matrix of relative scattering rates at probe frequency omega.

    The resonant analytic maximum is used as the normalizer at every omega
    (its omega-dependence is not specified; the choice is recorded in CLI
    output metadata).  Off the validity domain |Lambda| may slightly
    exceed 1.
    """
    return scan_point(drift, omega, coop).lambda_rel


def scan_point(drift, omega, coop):
    """U, T and Lambda at a scalar omega, or stacked over a 1-D array of them.

    Same contract as `scattering_matrix`; coop gives Lambda's normalizer
    t_max.  A T or Lambda that is not finite (t_max underflows, or U
    overflows) raises FloatingPointError.
    """
    with np.errstate(all="ignore"):  # an overflow gives inf or NaN: caught below
        u = scattering_matrix(drift, omega)
        t = transmittances(u, drift.spec.n_mech)
        lam = (t - np.swapaxes(t, -1, -2)) / t_max(coop)
    require_finite("scattering quantities", T=t, Lambda=lam)
    return ScatteringPoint(omega=omega, u=u, t=t, lambda_rel=lam)
