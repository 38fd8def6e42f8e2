"""Structural mode analysis.

Bright/dark decomposition (no phonon exchange), hybrid-mode transform (with
exchange), N-mode normal modes with dark-mode counting, and the eigensystem
of the analogous three-level Lambda configuration.  The normal modes and the
Lambda eigenstates come from one eigensolve, _aligned_eigh, whose
degenerate eigenspaces are aligned with the couplings (g, or the excited
state |e>), so each such eigenspace has at most one bright state.  The mode
analyses take any SystemSpec: model.to_linearized linearizes a Physical drive.
The closed forms scale their couplings by a power of two (_scaled), so only a
value too large for a float overflows, and require_finite names it.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_finite
from .model import mechanical_matrix, to_linearized

#: a mode counts as dark when |coupling| <= DARK_TOL * max coupling strength
DARK_TOL = 1e-10
#: a Lambda eigenstate counts as dark when its excited-state weight p_e <= DARK_P_E
DARK_P_E = 1e-10


@dataclass
class BrightDarkModes:
    omega_plus: float
    omega_minus: float
    zeta: float
    g_plus: float
    weights: tuple
    dark_mode_exists: bool


@dataclass
class HybridModes:
    omega_tilde_plus: float
    omega_tilde_minus: float
    f: float
    h: float
    g_tilde_plus: complex
    g_tilde_minus: complex
    darkness: float


@dataclass
class NormalModeAnalysis:
    omega_k: np.ndarray
    coupling_k: np.ndarray
    dark_flags: np.ndarray
    predicted_uncooled: float
    dark_ceiling: float


@dataclass
class LambdaSystem:
    omega1: float
    omega2: float
    omega_b: float
    theta: float
    delta: float = 0.0

    @property
    def eta_ratio(self):
        return self.omega_b / self.omega1


@dataclass
class LambdaEigen:
    lambdas: np.ndarray
    vectors: np.ndarray  # rows: eigenstates; columns: amplitudes on (e, f, g)
    p_e: np.ndarray
    dark_index: object  # the darkest state (argmin p_e) if it is dark, else None
    dark_indices: list  # every dark state (p_e <= DARK_P_E), in index order


def _scaled(x):
    """(x scaled by the power of two 2^-e that brings max |x_j| into [0.5, 1), e):
    exact where every step is a normal float, so a quotient of scaled entries
    keeps its bits, and no square of one overflows or underflows to 0."""
    e = math.frexp(max(map(abs, x)))[1]
    return [math.ldexp(v, -e) for v in x], e


def bright_dark(spec):
    """Bright/dark collective modes for two degenerate-coupling-channel resonators.

    Defined only without phonon exchange (eta = 0); with exchange use
    hybrid_transform instead.  A dark mode exists iff normal_modes finds one.
    """
    if spec.n_mech != 2:
        raise DomainError("bright/dark decomposition needs n_mech = 2")
    if spec.eta[0] != 0.0:
        raise DomainError("bright/dark decomposition assumes eta = 0")
    spec = to_linearized(spec)
    (g1, g2), g_exp = _scaled(spec.drive.g_lin)
    w1, w2 = spec.omega_m
    gsq = g1 * g1 + g2 * g2
    if gsq == 0.0:
        raise DomainError("needs at least one nonzero optomechanical coupling")
    omega_plus = (g1 * g1 * w1 + g2 * g2 * w2) / gsq
    omega_minus = (g2 * g2 * w1 + g1 * g1 * w2) / gsq
    zeta = g1 * g2 * (w1 - w2) / gsq
    root = math.sqrt(gsq)
    with np.errstate(all="ignore"):  # a g_plus beyond the float range is inf: named below
        g_plus = float(np.ldexp(root, g_exp))
    found = BrightDarkModes(
        omega_plus=omega_plus, omega_minus=omega_minus, zeta=zeta,
        g_plus=g_plus, weights=(g1 / root, g2 / root),
        dark_mode_exists=bool(normal_modes(spec).dark_flags.any()))
    require_finite("bright/dark quantities", **vars(found))
    return found


def hybrid_transform(spec):
    """Hybrid modes diagonalizing the phonon-exchange coupling (eta > 0)."""
    if spec.n_mech != 2:
        raise DomainError("hybrid transform needs n_mech = 2")
    eta = spec.eta[0]
    th = spec.theta[0]
    if eta <= 0.0:
        raise DomainError("hybrid transform assumes eta > 0; use bright_dark at eta = 0")
    (g1, g2), g_exp = _scaled(to_linearized(spec).drive.g_lin)
    w1, w2 = spec.omega_m
    half, mean = 0.5 * (w2 - w1), 0.5 * w1 + 0.5 * w2  # in halves: no sum overflows
    half_split = math.hypot(half, eta)
    wt_plus, wt_minus = mean + half_split, mean - half_split
    # (f, -h) is the unit vector along (w1 - wt_minus, eta), which for w2 >= w1
    # is eta (eta, half + half_split) / (half + half_split): no difference of
    # nearly equal numbers, no division by one and no eta^2 to underflow.  Scaled
    # by _scaled, neither component nor their hypot overflows or underflows
    (half, eta_s, half_split), _ = _scaled((half, eta, half_split))
    if w2 >= w1:
        x, y = eta_s, half + half_split
    else:
        x, y = half_split - half, eta_s
    norm = math.hypot(x, y)
    f, h = x / norm, -y / norm
    g_plus = f * g1 - cmath.exp(-1j * th) * h * g2
    g_minus = cmath.exp(1j * th) * h * g1 + f * g2
    total = math.sqrt(g1 * g1 + g2 * g2)
    darkness = min(abs(g_plus), abs(g_minus)) / total if total > 0 else 0.0
    with np.errstate(all="ignore"):  # a coupling beyond the float range is inf: named below
        g_plus, g_minus = (complex(*np.ldexp([z.real, z.imag], g_exp)) for z in (g_plus, g_minus))
    found = HybridModes(
        omega_tilde_plus=wt_plus, omega_tilde_minus=wt_minus, f=f, h=h,
        g_tilde_plus=g_plus, g_tilde_minus=g_minus, darkness=darkness)
    require_finite("hybrid-mode quantities", **vars(found))
    return found


def normal_modes(spec):
    """Normal modes of the mechanical chain and their cavity couplings.

    The modes are the eigenvectors of the phonon matrix H (mechanical_matrix),
    aligned with the couplings g by _aligned_eigh, listed by descending
    frequency and, inside a degenerate eigenspace, the bright combination
    first; coupling_k = <mode k|g>.  On a uniform chain this is the sine
    basis's k = 1..N order, Omega_k = w_m + 2 eta cos(k pi/(N+1)).  A mode is
    dark when |coupling_k| <= DARK_TOL max|g|.  With equal baths (nbar, gamma)
    the d dark modes hold the ceiling nbar d/N (dark_ceiling), and a uniform
    chain has the no-exchange ceiling nbar (N-1)/N (predicted_uncooled); NaN
    where undefined.
    """
    n, g_lin = spec.n_mech, to_linearized(spec).drive.g_lin
    g = np.array(g_lin, complex)
    with np.errstate(all="ignore"):  # a coupling beyond the float range: named below
        vals, vecs, _ = _aligned_eigh(mechanical_matrix(spec), g)
        omega_k, coupling = vals[::-1], (vecs.conj() @ g)[::-1]
        strength = np.abs(coupling)
    require_finite("normal-mode couplings", coupling_k=strength)
    dark = strength <= DARK_TOL * np.abs(g).max()
    nbar = spec.nbar[0] if len(set(spec.nbar)) == len(set(spec.gamma)) == 1 else math.nan
    uniform = (len(set(spec.omega_m)) == 1 and len(set(g_lin)) == 1
               and (n < 2 or len(set(spec.eta)) == 1))
    return NormalModeAnalysis(
        omega_k=omega_k, coupling_k=coupling, dark_flags=dark,
        predicted_uncooled=nbar * (n - 1) / n if uniform else math.nan,
        dark_ceiling=nbar * int(dark.sum()) / n)


def _cardano_roots(eta, theta):
    """(real roots of l^3 - (2 + eta^2) l - 2 eta cos(theta) = 0, {"imag_residue":
    the largest |Im| the closed form left on them}).  Only the tests call it."""
    q = -(2.0 + eta * eta) / 3.0
    r = eta * math.cos(theta)
    disc = cmath.sqrt(q ** 3 + r * r)
    s1 = (r + disc) ** (1.0 / 3.0)  # never 0: s1^3 = 0 would need q = 0, but q <= -2/3
    # conjugate pairing keeps the roots real regardless of the branch
    s2 = -q / s1
    l1 = s1 + s2
    spread = 1j * math.sqrt(3.0) / 2.0 * (s1 - s2)
    l2 = -0.5 * (s1 + s2) + spread
    l3 = -0.5 * (s1 + s2) - spread
    roots = np.array([l1, l2, l3])
    lambdas = roots.real
    # the closed form loses the smallest root to cancellation once eta >> 1
    # (two roots near +-eta, one near -2 cos(theta)/eta); Vieta's
    # l1 l2 l3 = 2 eta cos(theta) recovers it from the two large ones
    k = int(np.argmin(np.abs(lambdas)))
    big = np.delete(lambdas, k)
    lambdas[k] = 2.0 * r / (big[0] * big[1])
    return lambdas, {"imag_residue": float(np.abs(roots.imag).max())}


_EXCITED = np.array([1.0, 0.0, 0.0])  # |e> in the (e, f, g) basis


def _lambda_matrix(sys):
    eta, ratio = sys.eta_ratio, sys.omega2 / sys.omega1
    return np.array([
        [sys.delta / sys.omega1, 1.0, ratio],
        [1.0, 0.0, eta * cmath.exp(1j * sys.theta)],
        [ratio, eta * cmath.exp(-1j * sys.theta), 0.0],
    ])  # basis (e, f, g), in units of Omega_1


def _aligned_eigh(matrix, direction):
    """(ascending eigenvalues, eigenvectors as rows, eigenspace labels 0, 1, ...).

    One eigh call, and the one degeneracy rule: consecutive eigenvalues within
    1e-8 max |lambda| (compared in units of max |lambda|) share an eigenspace.
    One SVD per eigenspace rotates eigh's arbitrary basis of it to concentrate
    the overlap with `direction` in its last vector, so no dark state is missed;
    each rotated vector is then exact only to its eigenspace's spread (up to
    1e-8 of the matrix norm), the price of an aligned dark state.
    """
    vals, vecs = np.linalg.eigh(matrix)
    require_finite("eigensystem", eigenvalues=vals)  # the matrix's norm overflows
    overlap = direction.conj() @ vecs
    cut = np.diff(vals / np.abs(vals).max()) > 1e-8
    for cols in np.split(np.arange(len(vals)), np.flatnonzero(cut) + 1):
        if len(cols) > 1:
            _, _, vh = np.linalg.svd(overlap[None, cols])
            vecs[:, cols] = vecs[:, cols] @ vh.conj().T[:, ::-1]  # last->first: overlap ascending
    return vals, vecs.T, np.cumsum(np.r_[0, cut])


def lambda_eigensystem(sys):
    """Eigensystem of the loop-coupled Lambda three-level configuration.

    One _aligned_eigh call, aligned with |e>, gives every eigenvalue, eigenvector
    and eigenspace, listed largest, smallest, middle (the Cardano roots' order);
    inside an eigenspace the lower index takes the earlier, darker vector.  The
    root of least modulus, which eigh gives only to eps ||M||, is det M over the
    other two (Vieta): det M = eta (2 (Omega_2/Omega_1) cos(theta) - (Delta/Omega_1) eta).
    """
    vals, vecs, space = _aligned_eigh(_lambda_matrix(sys), _EXCITED)
    rank = np.argsort(np.lexsort((np.arange(3), space[[2, 0, 1]])))
    lambdas, vectors = vals[rank], vecs[rank]
    k, i, j = np.argsort(np.abs(lambdas), kind="stable")
    lambdas[k] = sys.eta_ratio / lambdas[i] * (
        2.0 * (sys.omega2 / sys.omega1) * math.cos(sys.theta)
        - sys.delta / sys.omega1 * sys.eta_ratio) / lambdas[j]
    p_e = np.abs(vectors[:, 0]) ** 2
    dark = np.flatnonzero(p_e <= DARK_P_E).tolist()
    return LambdaEigen(lambdas=lambdas, vectors=vectors, p_e=p_e,
                       dark_index=int(np.argmin(p_e)) if dark else None,
                       dark_indices=dark)
