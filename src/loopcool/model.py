"""System definition, classical linearization, and drift/noise construction.

One driven cavity couples to N mechanical resonators; neighboring resonators
exchange phonons with strength eta_j and phase theta_j (open chain).  The
fluctuation ordering everywhere is

    u = [da, db_1 ... db_N, da^+, db_1^+ ... db_N^+]

so the drift matrix has the conjugate block structure A = [[X, Y], [Y*, X*]].

`SPEC_FIELDS`, `DRIVE_FIELDS` and `PHYSICAL_FIELDS` declare the numbers of a
spec and of its drive once.  `param_table` lays them out as arrays with a
leading batch axis, `set_param` writes and checks a sweep axis or a spec's own
row there, and `drift_stack`, the one builder, turns the table into
(G, 2N+2, 2N+2) drift and noise stacks, linearizing a Physical drive's rows
each at its own classical fixed point (`fixed_point_stack`, one real cubic per
row).  Their batches of one are `linearize`, `to_linearized` and `build_drift`,
which builds from to_linearized's spec: one fixed-point solve per point.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidSpec, require_finite

TWO_PI = 2.0 * math.pi

FULL = "full"
RWA = "rwa"


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


#: The numbers of a spec, of a Linearized and of a Physical drive: parameter-table
#: name -> k for a list of N - k entries at n_mech = N (N resonators, N - 1
#: links), None for a scalar.  Every reader of a spec's shape takes it from here,
#: a drive's through its class's FIELDS.
SPEC_FIELDS = {"omega_m": 0, "kappa": None, "gamma": 0, "nbar": 0, "eta": 1, "theta": 1}
DRIVE_FIELDS = {"delta": None, "g_lin": 0}
PHYSICAL_FIELDS = {"delta_c": None, "omega_amp": None, "g_single": 0}


@dataclass(frozen=True)
class Linearized:
    """Drive given directly by the effective detuning and linearized couplings."""

    KIND = "linearized"  # the drive's `type` in config files and reports
    FIELDS = DRIVE_FIELDS

    delta: float
    g_lin: tuple

    def __post_init__(self):
        object.__setattr__(self, "g_lin", tuple(float(g) for g in self.g_lin))


@dataclass(frozen=True)
class Physical:
    """Drive given by the bare detuning, drive amplitude, and single-photon couplings."""

    KIND = "physical"
    FIELDS = PHYSICAL_FIELDS

    delta_c: float
    omega_amp: complex
    g_single: tuple

    def __post_init__(self):
        object.__setattr__(self, "omega_amp", complex(self.omega_amp))
        object.__setattr__(self, "g_single", tuple(float(g) for g in self.g_single))


@dataclass(frozen=True)
class SystemSpec:
    """Full parameter set, all rates in units of the first mechanical frequency.
    Checked on its one-row param_table by the declared counts and set_param; each
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
        if not isinstance(self.drive, (Linearized, Physical)):
            raise InvalidSpec("drive must be Linearized or Physical")
        table = param_table(self)
        for prefix, fields in (("", SPEC_FIELDS), ("drive.", self.drive.FIELDS)):
            for name, k in fields.items():
                if k is not None and table[name].shape[1:] != (n - k,):
                    raise InvalidSpec("%s%s must have %d entries for n_mech=%d"
                                      % (prefix, name, n - k, n))
        set_param(table, "theta", None, table["theta"])
        for name, k in SPEC_FIELDS.items():
            if k is not None:
                object.__setattr__(self, name, tuple(table[name][0].tolist()))

    def with_(self, **kw):
        return replace(self, **kw)


@dataclass
class ClassicalSteadyState:
    alpha: complex
    beta: list
    delta_eff: float
    g_lin: list  # the linearized couplings G_j = g_j |alpha|
    fixed_points: int  # real roots of the cubic: 1, or 3 if bistable


@dataclass
class DriftModel:
    a: np.ndarray
    q: np.ndarray
    spec: SystemSpec = None


def param_table(spec, size=1):
    """Parameter table of `size` copies of spec: field name -> float array.

    Each array has a leading batch axis: shape (size,) for a scalar field,
    (size, len) for a tuple field.  The fields are SPEC_FIELDS and the drive's
    FIELDS, all float but the complex omega_amp.  Each field's one row is
    converted once and, for size > 1, repeated along the batch axis by
    ndarray.repeat, so no Python list of size copies is built.  Every array is
    a fresh copy, so set_param may write a field without touching spec.
    """
    table = {name: np.array([getattr(owner, name)], complex if name == "omega_amp" else float)
             for owner, names in ((spec, SPEC_FIELDS), (spec.drive, spec.drive.FIELDS))
             for name in names}
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
        with np.errstate(all="ignore"):
            values = np.remainder(values, TWO_PI)
    column = table[name] if index is None else table[name][:, index]
    column[...] = values
    _check_numbers(table)


def _diagonal(stack, row, col, length):
    """Writable view of `length` diagonal entries from (row, col) on, in each
    matrix of a C-contiguous (size, m, m) stack (a block's diagonal)."""
    size, m, _ = stack.shape
    return stack.reshape(size, m * m)[:, row * m + col::m + 1][:, :length]


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
    _diagonal(h, 0, 0, n)[:] = omega
    hops = np.exp(1j * table["theta"]) * table["eta"]
    _diagonal(h, 0, 1, n - 1)[:] = hops
    _diagonal(h, 1, 0, n - 1)[:] = hops.conj()
    return h


def mechanical_matrix(spec):
    """The phonon matrix H of one spec (see mechanical_stack)."""
    return mechanical_stack(param_table(spec))[0]


def fixed_point_stack(table):
    """Classical steady states (alpha, beta_j, effective detuning) of the rows of a
    parameter table with a Physical drive's columns, as one ClassicalSteadyState
    whose fields have a leading batch axis.

    At fixed x = |alpha|^2, (H - i diag(gamma)) beta = -g x gives beta = c x, so
    Delta = Delta_c + 2 g.Re(beta) = Delta_c + s x with s = 2 g.Re(c), and
    x = |Omega|^2 / (kappa^2 + Delta^2) leaves one real cubic, the static
    optomechanical bistability (Aspelmeyer et al., RMP 86, 1391 (2014)):
    (Delta - Delta_c)(kappa^2 + Delta^2) = s |Omega|^2.  Its roots are the
    eigenvalues of its companion matrix, the one np.roots builds, one (3, 3)
    matrix per row; of the one or three real roots (fixed_points), the one of
    largest |Delta|, so of lowest |alpha|^2, is taken.  A number that overflows
    raises FloatingPointError, with no RuntimeWarning.
    """
    g, kappa, delta_c = table["g_single"], table["kappa"], table["delta_c"]
    size, n = g.shape
    m = mechanical_stack(table)
    _diagonal(m, 0, 0, n)[:] -= 1j * table["gamma"]
    c = np.linalg.solve(m, -g[..., None])[..., 0]
    companion = np.zeros((size, 3, 3))
    _diagonal(companion, 1, 0, 2)[:] = 1.0
    with np.errstate(all="ignore"):  # refused below if not finite
        k2 = kappa ** 2
        s = 2.0 * np.einsum("ij,ij->i", g, c.real)
        companion[:, 0] = np.column_stack([delta_c, -k2,
                                           delta_c * k2 + s * np.abs(table["omega_amp"]) ** 2])
    require_finite("classical fixed point", cubic=companion)
    roots = np.linalg.eigvals(companion)
    real = roots.imag == 0.0  # LAPACK gives a real eigenvalue an exact 0 imag
    pick = np.argmax(np.where(real, np.abs(roots.real), -1.0), axis=-1)
    delta = roots.real[np.arange(size), pick]
    with np.errstate(all="ignore"):
        alpha = -1j * table["omega_amp"].conj() / (kappa + 1j * delta)
        amplitude = np.abs(alpha)[:, None]
        beta, g_lin = c * amplitude ** 2, g * amplitude
    require_finite("classical fixed point", beta=beta, g_lin=g_lin)
    return ClassicalSteadyState(alpha=alpha, beta=beta, delta_eff=delta, g_lin=g_lin,
                                fixed_points=real.sum(axis=-1))


def linearize(spec):
    """Classical steady state of a Physical drive: fixed_point_stack's batch of one."""
    if not isinstance(spec.drive, Physical):
        raise InvalidSpec("linearize needs a Physical drive")
    st = fixed_point_stack(param_table(spec))
    return ClassicalSteadyState(**{name: column[0].tolist() for name, column in vars(st).items()})


def to_linearized(spec):
    """Replace a Physical drive by the equivalent Linearized one.

    The drive phase is rotated so the cavity amplitude is real positive,
    which makes the linearized couplings G_j = g_j |alpha| real.
    """
    if isinstance(spec.drive, Linearized):
        return spec
    st = linearize(spec)
    return spec.with_(drive=Linearized(delta=st.delta_eff, g_lin=st.g_lin))


def drift_stack(table, approx=CouplingApprox()):
    """Drift and noise stacks (A, Q) of a parameter table.

    The one drift builder: each is (size, 2N+2, 2N+2), row k built from row k
    of every table field, so a row does not depend on the rest of the batch.
    A Physical drive's rows are linearized here, each at its own classical
    fixed point (fixed_point_stack), whose own refusal passes through as it
    is.  Each drift entry is one of the table's numbers, or a hop
    eta e^{i theta}, times 0, +-1 or +-i, so only the noise matrix can fail
    (kappa = 1e308 makes 2 kappa infinite, gamma = 1e308 at nbar = 0 makes
    2 gamma nbar NaN): the stacks are built with no RuntimeWarning and Q is
    checked once, "noise matrix not finite: Q" (FloatingPointError).
    """
    if "g_single" in table:
        st = fixed_point_stack(table)
        table = {**table, "delta": st.delta_eff, "g_lin": st.g_lin}
    h = mechanical_stack(table)
    size, n, _ = h.shape
    dim = n + 1
    g = -1j * table["g_lin"]
    a = np.zeros((size, 2 * dim, 2 * dim), complex)
    x = a[:, :dim, :dim]  # annihilation block
    y = a[:, :dim, dim:]  # cross block to daggered operators
    x[:, 0, 0] = -(table["kappa"] + 1j * table["delta"])
    x[:, 0, 1:] = x[:, 1:, 0] = g  # G_j is real
    mech = -1j * h
    _diagonal(mech, 0, 0, n)[:] -= table["gamma"]  # -i H - diag(gamma)
    x[:, 1:, 1:] = mech
    if approx.optomechanical == FULL:
        y[:, 0, 1:] = y[:, 1:, 0] = g
    if approx.mechanical == FULL:
        # counter-rotating part of eta (e^{i th} b_j^+ + e^{-i th} b_j)(b_{j+1} + b_{j+1}^+)
        up = np.triu(h, 1)
        y[:, 1:, 1:] = -1j * (up + up.swapaxes(-1, -2))
    np.conjugate(y, out=a[:, dim:, :dim])
    np.conjugate(x, out=a[:, dim:, dim:])
    with np.errstate(all="ignore"):  # refused below, with no RuntimeWarning
        q = noise_stack(table)
    require_finite("noise matrix", Q=q)
    return a, q


def noise_stack(table):
    """Symmetric noise stack Q of a parameter table.  Each bath gives two equal
    entries, at (x, x^+) and (x^+, x), evaluated as 0.5 * (p + m) from its
    correlation rates: p = 2 kappa, m = 0 for the cavity at vacuum, and
    p = 2 gamma_j (nbar_j + 1), m = 2 gamma_j nbar_j for resonator j."""
    gamma, nbar = table["gamma"], table["nbar"]
    size, n = gamma.shape
    dim = n + 1
    q = np.zeros((size, 2 * dim, 2 * dim))
    two_gamma = 2.0 * gamma
    rates = np.column_stack([0.5 * (2.0 * table["kappa"]),
                             0.5 * (two_gamma * (nbar + 1.0) + two_gamma * nbar)])
    _diagonal(q, 0, dim, dim)[:] = rates
    _diagonal(q, dim, 0, dim)[:] = rates
    return q


def build_drift(spec, approx=CouplingApprox()):
    """Drift and noise matrices of the spec, built by drift_stack from the Linearized
    spec (to_linearized: one fixed-point solve), which the model keeps as its spec."""
    spec = to_linearized(spec)
    a, q = drift_stack(param_table(spec), approx)
    return DriftModel(a=a[0], q=q[0], spec=spec)


def build_noise(spec):
    """Symmetric noise matrix Q of the spec (see noise_stack)."""
    return noise_stack(param_table(spec))[0]
