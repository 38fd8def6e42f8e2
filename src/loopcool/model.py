"""System definition, classical linearization, and drift/noise construction.

One driven cavity couples to N mechanical resonators; neighboring resonators
exchange phonons with strength eta_j and phase theta_j (open chain).  The
fluctuation ordering everywhere is

    u = [da, db_1 ... db_N, da^+, db_1^+ ... db_N^+]

so the drift matrix has the conjugate block structure A = [[X, Y], [Y*, X*]].
"""

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidSpec, NoFixedPoint

TWO_PI = 2.0 * math.pi

FULL = "full"
RWA = "rwa"


def _require_finite(owner, *names):
    """Raise InvalidSpec unless every number in the named fields is finite."""
    for name in names:
        value = getattr(owner, name)
        if not all(map(cmath.isfinite, value if isinstance(value, tuple) else (value,))):
            raise InvalidSpec("%s must be finite" % name)


@dataclass(frozen=True)
class CouplingApprox:
    """Which counter-rotating terms to keep.

    optomechanical: FULL keeps the da <-> db^+ cross terms (the default, and
    what the exact covariance calculations use); RWA drops them.
    mechanical: RWA (default) keeps only excitation-conserving phonon
    exchange; FULL adds the counter-rotating db_j db_{j+1} terms from the
    product form (b_j + b_j^+)(b_{j+1} + b_{j+1}^+).
    """

    optomechanical: str = FULL
    mechanical: str = RWA

    def __post_init__(self):
        for v in (self.optomechanical, self.mechanical):
            if v not in (FULL, RWA):
                raise InvalidSpec("approximation must be %r or %r, got %r" % (FULL, RWA, v))


@dataclass(frozen=True)
class Linearized:
    """Drive given directly by the effective detuning and linearized couplings."""

    delta: float
    g_lin: tuple

    def __post_init__(self):
        object.__setattr__(self, "g_lin", tuple(float(g) for g in self.g_lin))
        _require_finite(self, "delta", "g_lin")


@dataclass(frozen=True)
class Physical:
    """Drive given by the bare detuning, drive amplitude, and single-photon couplings."""

    delta_c: float
    omega_drive_amp: complex
    g_single: tuple

    def __post_init__(self):
        object.__setattr__(self, "g_single", tuple(float(g) for g in self.g_single))
        _require_finite(self, "delta_c", "omega_drive_amp", "g_single")


@dataclass(frozen=True)
class SystemSpec:
    """Full parameter set, all rates in units of the first mechanical frequency."""

    n_mech: int
    omega_m: tuple
    kappa: float
    gamma: tuple
    nbar: tuple
    eta: tuple
    theta: tuple
    drive: object

    def __post_init__(self):
        n = self.n_mech
        if n < 1:
            raise InvalidSpec("n_mech must be >= 1")
        object.__setattr__(self, "omega_m", tuple(float(w) for w in self.omega_m))
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        object.__setattr__(self, "nbar", tuple(float(x) for x in self.nbar))
        object.__setattr__(self, "eta", tuple(float(e) for e in self.eta))
        object.__setattr__(self, "theta", tuple(float(t) % TWO_PI for t in self.theta))
        for name, want in (("omega_m", n), ("gamma", n), ("nbar", n),
                           ("eta", max(n - 1, 0)), ("theta", max(n - 1, 0))):
            if len(getattr(self, name)) != want:
                raise InvalidSpec("%s must have %d entries for n_mech=%d"
                                  % (name, want, n))
        if self.kappa <= 0:
            raise InvalidSpec("kappa must be > 0")
        if any(w <= 0 for w in self.omega_m) or any(g <= 0 for g in self.gamma):
            raise InvalidSpec("frequencies and decay rates must be > 0")
        if any(x < 0 for x in self.nbar):
            raise InvalidSpec("thermal occupations must be >= 0")
        if any(e < 0 for e in self.eta):
            raise InvalidSpec("phonon-exchange strengths must be >= 0")
        _require_finite(self, "omega_m", "kappa", "gamma", "nbar", "eta", "theta")
        if isinstance(self.drive, Linearized):
            if len(self.drive.g_lin) != n:
                raise InvalidSpec("drive.g_lin must have n_mech entries")
        elif isinstance(self.drive, Physical):
            if len(self.drive.g_single) != n:
                raise InvalidSpec("drive.g_single must have n_mech entries")
        else:
            raise InvalidSpec("drive must be Linearized or Physical")

    def with_(self, **kw):
        return replace(self, **kw)


@dataclass
class ClassicalSteadyState:
    alpha: complex
    beta: tuple
    delta_eff: float
    g_lin: tuple
    iterations: int


@dataclass
class DriftModel:
    a: np.ndarray
    q: np.ndarray
    c: np.ndarray
    ordering: str
    approx: CouplingApprox
    spec: SystemSpec = None


ORDERING = "u = [da, db_1..db_N, da^+, db_1^+..db_N^+]"


def mechanical_matrix(spec):
    """Hermitian N x N phonon matrix H of the chain.

    H_jj = omega_j and H_{j,j+1} = eta_j e^{i theta_j}: the hopping term
    eta_j (e^{i theta_j} b_j^+ b_{j+1} + h.c.) of the loop.  This is the one
    place the loop-phase convention is written; the drift, the classical
    fixed point, the normal modes and the adiabatic limits all take their
    hops from it.
    """
    n = spec.n_mech
    h = np.zeros((n, n), complex)
    h.flat[::n + 1] = spec.omega_m
    hops = np.exp(1j * np.array(spec.theta)) * spec.eta
    h.flat[1::n + 1] = hops
    h.flat[n::n + 1] = hops.conj()
    return h


#: damping factor of the Picard iteration for the classical fixed point
_PICARD_DAMPING = 0.5
_PICARD_TOL = 1e-12
_PICARD_CAP = 10_000


def linearize(spec):
    """Classical steady state (alpha, beta_j, effective detuning) for a Physical drive.

    Damped fixed-point iteration of {Delta from beta; alpha from Delta;
    beta from alpha}.  Raises NoFixedPoint if it fails to settle, which
    signals a multistable or unstable classical regime.
    """
    if not isinstance(spec.drive, Physical):
        raise InvalidSpec("linearize needs a Physical drive")
    g = np.array(spec.drive.g_single)
    om_drive = complex(spec.drive.omega_drive_amp)
    kappa = spec.kappa
    hops = mechanical_matrix(spec)
    np.fill_diagonal(hops, 0.0)
    resp = -1j / (np.array(spec.gamma) + 1j * np.array(spec.omega_m))
    alpha = 0.0 + 0.0j
    beta = np.zeros(spec.n_mech, complex)
    delta = spec.drive.delta_c
    for it in range(1, _PICARD_CAP + 1):
        delta_new = spec.drive.delta_c + float(np.sum(2.0 * g * beta.real))
        alpha_new = -1j * np.conj(om_drive) / (kappa + 1j * delta_new)
        beta_new = resp * (g * abs(alpha_new) ** 2 + hops @ beta)
        change = (abs(delta_new - delta) + abs(alpha_new - alpha)
                  + float(np.abs(beta_new - beta).sum()))
        scale = 1.0 + abs(alpha) + abs(delta) + float(np.abs(beta).sum())
        delta += _PICARD_DAMPING * (delta_new - delta)
        alpha += _PICARD_DAMPING * (alpha_new - alpha)
        beta += _PICARD_DAMPING * (beta_new - beta)
        if not np.isfinite(abs(alpha)) or abs(alpha) > 1e15:
            raise NoFixedPoint("classical amplitudes diverged")
        if change < _PICARD_TOL * scale:
            # polish: evaluate the defining equations once at the fixed point
            delta = spec.drive.delta_c + float(np.sum(2.0 * g * beta.real))
            alpha = -1j * np.conj(om_drive) / (kappa + 1j * delta)
            return ClassicalSteadyState(
                alpha=complex(alpha), beta=tuple(beta), delta_eff=delta,
                g_lin=tuple(g * alpha), iterations=it)
    raise NoFixedPoint("no classical fixed point after %d iterations" % _PICARD_CAP)


def to_linearized(spec):
    """Replace a Physical drive by the equivalent Linearized one.

    The drive phase is rotated so the cavity amplitude is real positive,
    which makes the linearized couplings G_j = g_j |alpha| real.
    """
    if isinstance(spec.drive, Linearized):
        return spec
    st = linearize(spec)
    g_lin = tuple(g * abs(st.alpha) for g in spec.drive.g_single)
    return spec.with_(drive=Linearized(delta=st.delta_eff, g_lin=g_lin))


def build_drift(spec, approx=CouplingApprox()):
    """Drift, raw-correlation, and symmetrized noise matrices for the spec."""
    if isinstance(spec.drive, Physical):
        spec = to_linearized(spec)
    dim = spec.n_mech + 1
    h = mechanical_matrix(spec)
    g = -1j * np.array(spec.drive.g_lin)
    a = np.zeros((2 * dim, 2 * dim), complex)
    x = a[:dim, :dim]  # annihilation block
    y = a[:dim, dim:]  # cross block to daggered operators
    x[0, 0] = -(spec.kappa + 1j * spec.drive.delta)
    x[0, 1:] = x[1:, 0] = g  # G_j is real (Linearized stores floats)
    mech = -1j * h
    mech.flat[::dim] -= spec.gamma  # -i H - diag(gamma)
    x[1:, 1:] = mech
    if approx.optomechanical == FULL:
        y[0, 1:] = y[1:, 0] = g
    if approx.mechanical == FULL:
        # counter-rotating part of eta (e^{i th} b_j^+ + e^{-i th} b_j)(b_{j+1} + b_{j+1}^+)
        up = np.triu(h, 1)
        y[1:, 1:] = -1j * (up + up.T)
    np.conjugate(y, out=a[dim:, :dim])
    np.conjugate(x, out=a[dim:, dim:])
    c, q = build_noise(spec)
    return DriftModel(a=a, q=q, c=c, ordering=ORDERING, approx=approx, spec=spec)


def build_noise(spec):
    """Raw bath-correlation matrix C and its symmetrization Q = (C + C^T)/2."""
    n = spec.n_mech
    dim = n + 1
    c = np.zeros((2 * dim, 2 * dim))
    c[0, dim] = 2.0 * spec.kappa  # cavity bath at vacuum
    for j in range(n):
        c[1 + j, dim + 1 + j] = 2.0 * spec.gamma[j] * (spec.nbar[j] + 1.0)
        c[dim + 1 + j, 1 + j] = 2.0 * spec.gamma[j] * spec.nbar[j]
    q = 0.5 * (c + c.T)
    return c, q
