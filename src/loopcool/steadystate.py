"""Steady-state covariance, phonon extraction, and stability certification.

The covariance matrix V solves A V + V A^T = -Q (plain transpose, complex A,
matching the operator-ordered correlation matrix).  One engine serves every
caller.  It stacks the drifts of a batch and runs one eigendecomposition
A = W diag(lambda) W^-1 per drift (`_eig`).  The eigenvalues give the verdict:
a drift is stable iff its spectral abscissa is below STABILITY_MARGIN, the one
margin used everywhere.  For the stable drifts the eigenvectors give V by the
diagonalisation form of the Bartels-Stewart method (Golub & Van Loan, Matrix
Computations, sec. 7.6; Bartels & Stewart, CACM 15, 1972), batched at O(n^3)
per drift:

    V = W (F / (lambda_i + lambda_j)) W^T,   F = W^-1 (-Q) W^-T.

Near an exceptional point W is ill-conditioned and this route loses accuracy.
So each solution's normwise backward error

    ||A V + V A^T + Q|| / (2 ||A|| ||V|| + ||Q||)    (infinity norms)

is checked, and a drift whose error is not <= BACKWARD_ERROR_TOL is solved
again by the Schur-based `scipy.linalg.solve_sylvester`; its report says
solver = "schur" instead of "eig".  `cool_many` is the batched entry point;
`cool`, `cool_or_flag`, `stability_check` and `lyapunov_solve` are batches of
one, so every command gives the same verdict for the same drift.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import numkit
from .errors import NoConvergence, ShapeMismatch, Unstable

#: spectral abscissas at or above this are unstable; closer to zero the
#: steady state is too ill-conditioned to report
STABILITY_MARGIN = -1e-10

#: eig-route solutions with a larger normwise backward error are solved again
#: by Schur forms
BACKWARD_ERROR_TOL = 1e-13


@dataclass
class CoolingReport:
    n_f: np.ndarray
    n_cav: float
    stable: bool
    spectral_abscissa: float
    residual: float
    #: "eig" or "schur" for the solver that gave V; None when none ran
    solver: str = None


def unstable(abscissa):
    """The Unstable error for a drift with this spectral abscissa."""
    return Unstable("spectral abscissa %.3e >= %.0e" % (abscissa, STABILITY_MARGIN),
                    abscissa=abscissa)


def _eig(a):
    """Eigenvalues (G, n) and eigenvectors (G, n, n) of a (G, n, n) drift stack."""
    try:
        return np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("eigenvalue iteration failed: %s" % exc) from None


def _norm(m):
    return np.linalg.norm(m, np.inf, axis=(-2, -1))


def _solve(a, q, lam, w):
    """(V, max-entry residual, solver per drift) for a stack with its eigensystems."""
    at = np.swapaxes(a, -1, -2)
    with np.errstate(all="ignore"):  # a defective W gives inf or NaN: caught below
        try:
            w_inv = np.linalg.inv(w)
        except np.linalg.LinAlgError:  # an exactly singular W: Schur for the whole stack
            w_inv = np.full_like(w, np.nan)
        f = w_inv @ -q @ np.swapaxes(w_inv, -1, -2)
        v = w @ (f / (lam[:, :, None] + lam[:, None, :])) @ np.swapaxes(w, -1, -2)
        r = a @ v + v @ at + q
        backward = _norm(r) / (2.0 * _norm(a) * _norm(v) + _norm(q))
    solver = ["eig"] * len(a)
    for k in np.flatnonzero(~(backward <= BACKWARD_ERROR_TOL)):
        v[k] = scipy.linalg.solve_sylvester(a[k], at[k], -q[k])
        r[k] = a[k] @ v[k] + v[k] @ at[k] + q[k]
        solver[k] = "schur"
    return v, np.abs(r).max(axis=(-2, -1)), solver


def stability_check(drift):
    """(stable, abscissa): stable iff max Re eig(A) < STABILITY_MARGIN."""
    lam, _ = _eig(drift.a[None])
    abscissa = float(lam.real.max())
    return abscissa < STABILITY_MARGIN, abscissa


def lyapunov_solve(drift, require_stable=True):
    """Solve A V + V A^T = -Q for the steady-state covariance V.

    With require_stable=True, Unstable is raised exactly when stability_check
    calls the drift unstable.  With require_stable=False the equation is
    solved regardless of the spectral abscissa; the result is then not a
    physical steady state (used only for diagnostics of approximation
    breakdown).
    """
    a, q = drift.a[None], drift.q[None]
    lam, w = _eig(a)
    abscissa = float(lam.real.max())
    if require_stable and not abscissa < STABILITY_MARGIN:
        raise unstable(abscissa)
    return _solve(a, q, lam, w)[0][0]


def lyapunov_residual(drift, v):
    return numkit.norm_inf(drift.a @ v + v @ drift.a.T + drift.q)


def _occupations(v, n_mech):
    """(n_f, n_cav) from covariances (..., 2N+2, 2N+2): the (db_j^+, db_j) and
    (da^+, da) elements minus 1/2."""
    dim = n_mech + 1
    n_f = v[..., dim + 1:, 1:dim].diagonal(axis1=-2, axis2=-1).real - 0.5
    return n_f, v[..., dim, 0].real - 0.5


def phonon_numbers(v, n_mech):
    """Extract per-mode occupations from the covariance matrix.

    n_j^f is the (db_j^+, db_j) element minus 1/2; the cavity occupation
    comes from the analogous (da^+, da) element.  The report's spectral
    abscissa and residual are NaN; cool() fills them in.
    """
    dim = n_mech + 1
    if v.shape != (2 * dim, 2 * dim):
        raise ShapeMismatch("covariance shape %s does not match n_mech=%d"
                            % (v.shape, n_mech))
    n_f, n_cav = _occupations(v, n_mech)
    return CoolingReport(n_f=n_f, n_cav=float(n_cav), stable=True,
                         spectral_abscissa=math.nan, residual=math.nan)


def cool_many(drifts):
    """One report per drift (all of one shape); unstable drifts get NaN occupations.

    The batched engine: one eigendecomposition per drift, then the Lyapunov
    solve and phonon extraction for the stable ones.
    """
    a = np.stack([d.a for d in drifts]).astype(complex, copy=False)
    q = np.stack([d.q for d in drifts])
    n_mech = a.shape[-1] // 2 - 1
    lam, w = _eig(a)
    abscissa = lam.real.max(axis=-1)
    stable = np.flatnonzero(abscissa < STABILITY_MARGIN)
    reports = [CoolingReport(n_f=np.full(n_mech, math.nan), n_cav=math.nan, stable=False,
                             spectral_abscissa=float(x), residual=math.nan)
               for x in abscissa]
    if stable.size:
        v, residual, solver = _solve(a[stable], q[stable], lam[stable], w[stable])
        n_f, n_cav = _occupations(v, n_mech)
        for k, i in enumerate(stable):
            reports[i] = CoolingReport(n_f=n_f[k], n_cav=float(n_cav[k]), stable=True,
                                       spectral_abscissa=float(abscissa[i]),
                                       residual=float(residual[k]), solver=solver[k])
    return reports


def cool(drift):
    """Stability check + Lyapunov solve + phonon extraction, one eigensolve."""
    report = cool_or_flag(drift)
    if not report.stable:
        raise unstable(report.spectral_abscissa)
    return report


def cool_or_flag(drift):
    """Like cool(), but an unstable drift yields a NaN-occupations record.

    Used where a single unstable point must not abort the run.
    """
    return cool_many([drift])[0]
