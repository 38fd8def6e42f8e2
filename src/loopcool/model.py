"""System definition, classical linearization, and drift/noise construction.

One driven cavity couples to N mechanical resonators; neighboring resonators
exchange phonons with strength eta_j and phase theta_j (open chain).  The
fluctuation ordering everywhere is

    u = [da, db_1 ... db_N, da^+, db_1^+ ... db_N^+]

so the drift matrix has the conjugate block structure A = [[X, Y], [Y*, X*]].

`SPEC_FIELDS` and `DRIVE_FIELDS` declare a spec's numbers and their entry
counts once.  `param_table` lays them out as arrays with a leading batch
axis, `set_param` writes and checks a sweep axis or a `SystemSpec`'s own
row there, and `drift_stack` turns the table into (G, 2N+2, 2N+2) drift and
noise stacks.  `build_drift` is the batch of one: there is one builder.
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


#: The numbers of a spec, then of a Linearized drive: parameter-table name -> k
#: for a list of N - k entries at n_mech = N (N resonators, N - 1 links), None
#: for a scalar.  Every reader of a spec's shape takes it from here.
SPEC_FIELDS = {"omega_m": 0, "kappa": None, "gamma": 0, "nbar": 0, "eta": 1, "theta": 1}
DRIVE_FIELDS = {"delta": None, "g_lin": 0}


@dataclass(frozen=True)
class SystemSpec:
    """Full parameter set, all rates in units of the first mechanical frequency.
    Checked on its one-row param_table by SPEC_FIELDS's counts and set_param; each
    list is stored as a tuple of floats, theta mod 2 pi; kappa is kept as given."""

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
        table = param_table(self)
        lists = {name: n - k for name, k in SPEC_FIELDS.items() if k is not None}
        for name, want in lists.items():
            if table[name].shape[1:] != (want,):
                raise InvalidSpec("%s must have %d entries for n_mech=%d" % (name, want, n))
        set_param(table, "theta", None, table["theta"])
        for name in lists:
            object.__setattr__(self, name, tuple(table[name][0].tolist()))
        if not isinstance(self.drive, (Linearized, Physical)):
            raise InvalidSpec("drive must be Linearized or Physical")
        coupling = "g_lin" if isinstance(self.drive, Linearized) else "g_single"
        if len(getattr(self.drive, coupling)) != n:
            raise InvalidSpec("drive.%s must have n_mech entries" % coupling)

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
    spec: SystemSpec = None


def param_table(spec, size=1):
    """Parameter table of `size` copies of spec: field name -> float array.

    Each array has a leading batch axis: shape (size,) for a scalar field,
    (size, len) for a tuple field.  The fields are SPEC_FIELDS and, for a
    Linearized drive, DRIVE_FIELDS.  Each field's one row is converted once
    and, for size > 1, repeated along the batch axis by ndarray.repeat, so no
    Python list of size copies is built.  Every array is a fresh copy, so
    set_param may write a field (e.g. a sweep's axis) without touching spec.
    """
    owners = [(spec, SPEC_FIELDS)]
    if isinstance(spec.drive, Linearized):
        owners.append((spec.drive, DRIVE_FIELDS))
    table = {name: np.array([getattr(owner, name)], float)
             for owner, names in owners for name in names}
    if size != 1:  # size 1 is every SystemSpec check and build_drift: no repeat call there
        table = {name: row.repeat(size, axis=0) for name, row in table.items()}
    return table


def _check_numbers(table):
    """Raise InvalidSpec unless every row of a parameter table obeys a spec's value
    rules, in this order: kappa > 0; omega_m, gamma > 0; nbar, eta >= 0; finite."""
    if (table["kappa"] <= 0).any():
        raise InvalidSpec("kappa must be > 0")
    if (table["omega_m"] <= 0).any() or (table["gamma"] <= 0).any():
        raise InvalidSpec("frequencies and decay rates must be > 0")
    if (table["nbar"] < 0).any():
        raise InvalidSpec("thermal occupations must be >= 0")
    if (table["eta"] < 0).any():
        raise InvalidSpec("phonon-exchange strengths must be >= 0")
    for name, values in table.items():
        if not np.isfinite(values).all():
            raise InvalidSpec("%s must be finite" % name)


def set_param(table, name, index, values):
    """Write values to entry `index` (None for a scalar field) of field `name` in
    every row of a parameter table, then check the table by the spec's value rules
    (InvalidSpec).  A loop phase is reduced mod 2 pi (Python's float %); an
    infinite one becomes NaN, for the finite rule, with no RuntimeWarning."""
    if name == "theta":
        with np.errstate(invalid="ignore"):
            values = np.remainder(values, TWO_PI)
    column = table[name] if index is None else table[name][:, index]
    column[...] = values
    _check_numbers(table)


def mechanical_stack(table):
    """Hermitian N x N phonon matrices H, one per row of a parameter table.

    H_jj = omega_j and H_{j,j+1} = eta_j e^{i theta_j}: the hopping term
    eta_j (e^{i theta_j} b_j^+ b_{j+1} + h.c.) of the loop.  This is the one
    place the loop-phase convention is written; the drift, the classical
    fixed point, the normal modes and the adiabatic limits all take their
    hops from it.
    """
    omega = table["omega_m"]
    size, n = omega.shape
    h = np.zeros((size, n, n), complex)
    flat = h.reshape(size, n * n)  # a square matrix's (0, +1, -1) diagonals are strided slices
    flat[:, ::n + 1] = omega
    hops = np.exp(1j * table["theta"]) * table["eta"]
    flat[:, 1::n + 1] = hops
    flat[:, n::n + 1] = hops.conj()
    return h


def mechanical_matrix(spec):
    """The phonon matrix H of one spec (see mechanical_stack)."""
    return mechanical_stack(param_table(spec))[0]


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


def drift_stack(table, approx=CouplingApprox()):
    """Drift and noise stacks (A, Q) of a parameter table.

    The one drift builder: each is (size, 2N+2, 2N+2), row k built from row k
    of every table field with elementwise arithmetic only, so a row does not
    depend on the rest of the batch.  The table needs a Linearized drive.
    """
    h = mechanical_stack(table)
    size, n, _ = h.shape
    dim = n + 1
    g = -1j * table["g_lin"]
    a = np.zeros((size, 2 * dim, 2 * dim), complex)
    x = a[:, :dim, :dim]  # annihilation block
    y = a[:, :dim, dim:]  # cross block to daggered operators
    x[:, 0, 0] = -(table["kappa"] + 1j * table["delta"])
    x[:, 0, 1:] = x[:, 1:, 0] = g  # G_j is real (Linearized stores floats)
    mech = -1j * h
    mech.reshape(size, n * n)[:, ::n + 1] -= table["gamma"]  # -i H - diag(gamma)
    x[:, 1:, 1:] = mech
    if approx.optomechanical == FULL:
        y[:, 0, 1:] = y[:, 1:, 0] = g
    if approx.mechanical == FULL:
        # counter-rotating part of eta (e^{i th} b_j^+ + e^{-i th} b_j)(b_{j+1} + b_{j+1}^+)
        up = np.triu(h, 1)
        y[:, 1:, 1:] = -1j * (up + up.swapaxes(-1, -2))
    np.conjugate(y, out=a[:, dim:, :dim])
    np.conjugate(x, out=a[:, dim:, dim:])
    return a, noise_stack(table)


def _diagonal(stack, row, col, length):
    """Writable view of `length` diagonal entries from (row, col) on, in each
    matrix of a C-contiguous (size, m, m) stack (a block's diagonal)."""
    size, m, _ = stack.shape
    return stack.reshape(size, m * m)[:, row * m + col::m + 1][:, :length]


def noise_stack(table):
    """Symmetric noise stack Q of a parameter table.  Each bath gives two equal
    entries, at (x, x^+) and (x^+, x), evaluated as 0.5 * (p + m) from its
    correlation rates: p = 2 kappa, m = 0 for the cavity at vacuum, and
    p = 2 gamma_j (nbar_j + 1), m = 2 gamma_j nbar_j for resonator j."""
    gamma, nbar = table["gamma"], table["nbar"]
    size, n = gamma.shape
    dim = n + 1
    q = np.zeros((size, 2 * dim, 2 * dim))
    q[:, 0, dim] = q[:, dim, 0] = 0.5 * (2.0 * table["kappa"])
    two_gamma = 2.0 * gamma
    bath = 0.5 * (two_gamma * (nbar + 1.0) + two_gamma * nbar)
    _diagonal(q, 1, dim + 1, n)[:] = bath
    _diagonal(q, dim + 1, 1, n)[:] = bath
    return q


def build_drift(spec, approx=CouplingApprox()):
    """Drift and noise matrices for the spec.

    The batch of one of drift_stack; a Physical drive is linearized first.
    Raises FloatingPointError, with no RuntimeWarning, if a number overflows
    in building them (a finite but huge rate, such as kappa = 1e308, makes
    2 kappa infinite), so neither matrix has a non-finite entry.
    """
    spec = to_linearized(spec)
    with np.errstate(over="raise", invalid="raise"):
        a, q = drift_stack(param_table(spec), approx)
    return DriftModel(a=a[0], q=q[0], spec=spec)


def build_noise(spec):
    """Symmetric noise matrix Q of the spec (see noise_stack)."""
    return noise_stack(param_table(spec))[0]
