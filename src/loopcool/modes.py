"""Structural mode analysis.

Bright/dark decomposition (no phonon exchange), hybrid-mode transform (with
exchange), N-mode normal modes with dark-mode counting, and the eigensystem
of the analogous three-level Lambda configuration.
"""

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import mechanical_matrix

#: a mode counts as dark when |coupling| <= DARK_TOL * max coupling strength
DARK_TOL = 1e-10


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
    n: int
    omega_k: np.ndarray
    coupling_k: np.ndarray
    dark_flags: np.ndarray
    predicted_uncooled: float
    norm_a: float
    closed_form: bool


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
    dark_index: object
    cardano: dict
    analytic: bool


def bright_dark(spec):
    """Bright/dark collective modes for two degenerate-coupling-channel resonators.

    Defined only without phonon exchange (eta = 0); with exchange use
    hybrid_transform instead.
    """
    if spec.n_mech != 2:
        raise DomainError("bright/dark decomposition needs n_mech = 2")
    if spec.eta[0] != 0.0:
        raise DomainError("bright/dark decomposition assumes eta = 0")
    g1, g2 = spec.drive.g_lin
    w1, w2 = spec.omega_m
    gsq = g1 * g1 + g2 * g2
    if gsq == 0.0:
        raise DomainError("needs at least one nonzero optomechanical coupling")
    omega_plus = (g1 * g1 * w1 + g2 * g2 * w2) / gsq
    omega_minus = (g2 * g2 * w1 + g1 * g1 * w2) / gsq
    zeta = g1 * g2 * (w1 - w2) / gsq
    g_plus = math.sqrt(gsq)
    return BrightDarkModes(
        omega_plus=omega_plus, omega_minus=omega_minus, zeta=zeta,
        g_plus=g_plus, weights=(g1 / g_plus, g2 / g_plus),
        dark_mode_exists=abs(zeta) <= DARK_TOL * max(abs(w1), abs(w2)))


def hybrid_transform(spec):
    """Hybrid modes diagonalizing the phonon-exchange coupling (eta > 0)."""
    if spec.n_mech != 2:
        raise DomainError("hybrid transform needs n_mech = 2")
    eta = spec.eta[0]
    th = spec.theta[0]
    if eta <= 0.0:
        raise DomainError("hybrid transform assumes eta > 0; use bright_dark at eta = 0")
    g1, g2 = spec.drive.g_lin
    w1, w2 = spec.omega_m
    split = math.sqrt((w1 - w2) ** 2 + 4.0 * eta * eta)
    wt_plus = 0.5 * (w1 + w2 + split)
    wt_minus = 0.5 * (w1 + w2 - split)
    # wt_minus - w1 < 0 strictly for eta > 0, so f and h are well defined
    f = abs(wt_minus - w1) / math.sqrt((wt_minus - w1) ** 2 + eta * eta)
    h = eta * f / (wt_minus - w1)
    g_plus = f * g1 - cmath.exp(-1j * th) * h * g2
    g_minus = cmath.exp(1j * th) * h * g1 + f * g2
    total = math.sqrt(g1 * g1 + g2 * g2)
    darkness = min(abs(g_plus), abs(g_minus)) / total if total > 0 else 0.0
    return HybridModes(
        omega_tilde_plus=wt_plus, omega_tilde_minus=wt_minus, f=f, h=h,
        g_tilde_plus=g_plus, g_tilde_minus=g_minus, darkness=darkness)


def normal_modes(spec):
    """Normal modes of the mechanical chain and their cavity couplings.

    The closed form assumes degenerate frequencies and uniform eta, G; in
    that case Omega_k = w_m + 2 eta cos(k pi/(N+1)) and the coupling of the
    k-th mode carries the accumulated-phase interference factor.  Nonuniform
    specs fall back to numerical block diagonalization (with a warning).  The
    uncooled ceiling nbar (N-1)/N needs equal baths too (nbar, gamma); else NaN.
    """
    n = spec.n_mech
    g = spec.drive.g_lin
    uniform = (len(set(spec.omega_m)) == 1 and len(set(g)) == 1
               and (n < 2 or len(set(spec.eta)) == 1))
    if not uniform:
        warnings.warn("nonuniform spec: no closed normal-mode form, "
                      "falling back to numerical diagonalization")
        vals, vecs = np.linalg.eigh(mechanical_matrix(spec))
        coupling = vecs.conj().T @ np.array(g, complex)
        gmax = max(abs(x) for x in g) or 1.0
        return NormalModeAnalysis(
            n=n, omega_k=vals, coupling_k=coupling,
            dark_flags=np.abs(coupling) <= DARK_TOL * gmax,
            predicted_uncooled=math.nan, norm_a=math.nan, closed_form=False)

    w_m = spec.omega_m[0]
    eta = spec.eta[0] if n > 1 else 0.0
    gval = g[0]
    norm_a = math.sqrt((n + 1) / 2.0)
    ks = np.arange(1, n + 1)
    omega_k = w_m + 2.0 * eta * np.cos(ks * math.pi / (n + 1))
    coupling = np.zeros(n, complex)
    for ki, k in enumerate(ks):
        acc = math.sin(k * math.pi / (n + 1))
        phase = 0.0
        for j in range(2, n + 1):
            phase += spec.theta[j - 2]
            acc += cmath.exp(1j * phase) * math.sin(j * k * math.pi / (n + 1))
        coupling[ki] = gval / norm_a * acc
    nbar = spec.nbar[0] if len(set(spec.nbar)) == len(set(spec.gamma)) == 1 else math.nan
    return NormalModeAnalysis(
        n=n, omega_k=omega_k, coupling_k=coupling,
        dark_flags=np.abs(coupling) <= DARK_TOL * abs(gval),
        predicted_uncooled=nbar * (n - 1) / n, norm_a=norm_a, closed_form=True)


def _cardano_roots(eta, theta):
    """Real roots of l^3 - (2 + eta^2) l - 2 eta cos(theta) = 0."""
    q = -(2.0 + eta * eta) / 3.0
    r = eta * math.cos(theta)
    disc = cmath.sqrt(q ** 3 + r * r)
    s1 = (r + disc) ** (1.0 / 3.0)
    # conjugate pairing keeps the roots real regardless of the branch
    s2 = -q / s1 if abs(s1) > 0 else 0.0j
    l1 = s1 + s2
    spread = 1j * math.sqrt(3.0) / 2.0 * (s1 - s2)
    l2 = -0.5 * (s1 + s2) + spread
    l3 = -0.5 * (s1 + s2) - spread
    roots = np.array([l1, l2, l3])
    return roots.real, {"q": q, "r": r, "s1": s1, "s2": s2,
                        "imag_residue": float(np.abs(roots.imag).max())}


def _lambda_matrix(sys):
    eta, ratio = sys.eta_ratio, sys.omega2 / sys.omega1
    return np.array([
        [sys.delta / sys.omega1, 1.0, ratio],
        [1.0, 0.0, eta * cmath.exp(1j * sys.theta)],
        [ratio, eta * cmath.exp(-1j * sys.theta), 0.0],
    ])  # basis (e, f, g), in units of Omega_1


def lambda_eigensystem(sys):
    """Eigensystem of the loop-coupled Lambda three-level configuration.

    For the symmetric resonant case (Omega_1 = Omega_2, Delta = 0) the
    eigenvalues come from the Cardano closed form and eigenvectors from the
    analytic expression (numeric fallback at lambda^2 = 1, where that
    expression is singular).  Other cases are solved numerically.
    """
    eta = sys.eta_ratio
    th = sys.theta
    symmetric = sys.omega1 == sys.omega2 and sys.delta == 0.0
    if not symmetric:
        vals, vecs = np.linalg.eigh(_lambda_matrix(sys))
        vectors = vecs.T
        p_e = np.abs(vectors[:, 0]) ** 2
        dark = int(np.argmin(p_e)) if p_e.min() <= 1e-10 else None
        return LambdaEigen(lambdas=vals, vectors=vectors, p_e=p_e,
                           dark_index=dark, cardano={}, analytic=False)

    lambdas, card = _cardano_roots(eta, th)
    vmat = _lambda_matrix(sys)
    vectors = np.zeros((3, 3), complex)
    singular = [abs(lam * lam - 1.0) <= 1e-8 for lam in lambdas]
    for s, lam in enumerate(lambdas):
        if not singular[s]:
            c_f = (lam * eta * cmath.exp(1j * th) + 1.0) / (lam * lam - 1.0)
            c_e = (eta * cmath.exp(1j * th) + lam) / (lam * lam - 1.0)
            vec = np.array([c_e, c_f, 1.0])
            vectors[s] = vec / np.linalg.norm(vec)
    if any(singular):
        # the analytic eigenvector expression is singular at lambda = +-1;
        # fall back to a numeric eigensolve there.  For a degenerate
        # eigenvalue the numeric basis of the eigenspace is arbitrary, so
        # rotate it to expose a zero-excited-amplitude combination if one
        # exists (otherwise a dark state could be missed).
        vals, vecs = np.linalg.eigh(vmat)
        for lam in {round(lambdas[s], 8) for s in range(3) if singular[s]}:
            members = [s for s in range(3) if singular[s]
                       and abs(lambdas[s] - lam) <= 1e-6]
            cols = np.argsort(np.abs(vals - lam))[:len(members)]
            basis = vecs[:, cols]
            if len(members) > 1:
                _, _, vh = np.linalg.svd(basis[0:1, :])
                basis = basis @ vh.conj().T[:, ::-1]  # last->first: |e| ascending
            for k, s in enumerate(members):
                vectors[s] = basis[:, k]
    p_e = np.abs(vectors[:, 0]) ** 2
    dark = int(np.argmin(p_e)) if p_e.min() <= 1e-10 else None
    return LambdaEigen(lambdas=lambdas, vectors=vectors, p_e=p_e,
                       dark_index=dark, cardano=card, analytic=True)
