"""Steady-state covariance, phonon extraction, and stability certification.

The covariance matrix V solves A V + V A^T = -Q (plain transpose, complex A,
matching the operator-ordered correlation matrix).  One engine serves every
caller.  It takes a stack of drifts and their symmetric noise matrices Q (as
`model.drift_stack` builds them) and runs one eigendecomposition
A = W diag(lambda) W^-1 per drift.  The eigenvalues give the verdict, in
`_verdict` alone: a drift is stable iff its spectral abscissa is below
STABILITY_MARGIN, the one margin used everywhere; `limits` refuses an
effective two-mode model by it too.  For the stable drifts the
eigenvectors give V by the diagonalisation form of the Bartels-Stewart method
(Golub & Van Loan, Matrix Computations, sec. 7.6; Bartels & Stewart, CACM 15,
1972), batched at O(n^3) per drift:

    V = W (F / (lambda_i + lambda_j)) W^T,   F = W^-1 (-Q) W^-T.

Near an exceptional point W is ill-conditioned and this route loses accuracy.
So each solution's normwise backward error

    ||A V + V A^T + Q|| / (2 ||A|| ||V|| + ||Q||)    (infinity norms)

is checked, and a drift whose error is not <= BACKWARD_ERROR_TOL is solved
again by the Schur-based `scipy.linalg.solve_sylvester`; its report says
solver = "schur" instead of "eig".  Only that fallback imports scipy.
`cool_many` is the batched entry point: it returns one CoolingReport of arrays
over the stack, with no per-drift object.  `cool`, `cool_or_flag`,
`stability_check` and `lyapunov_solve` are batches of one (`cool_or_flag` reads
row 0 of the report), so every command gives the same verdict for the same drift.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, ShapeMismatch, Unstable, require_finite

#: spectral abscissas at or above this are unstable; closer to zero the
#: steady state is too ill-conditioned to report
STABILITY_MARGIN = -1e-10

#: eig-route solutions with a larger normwise backward error are solved again
#: by Schur forms
BACKWARD_ERROR_TOL = 1e-13


@dataclass
class CoolingReport:
    """One drift's steady state; from cool_many, every field has a leading batch axis."""

    n_f: np.ndarray
    n_cav: float
    #: the verdict on the drift; None from phonon_numbers, which sees V alone
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


def _verdict(a):
    """(eigenvalues, eigenvectors, abscissa, stable) of a (G, n, n) drift stack."""
    lam, w = _eig(a)
    abscissa = lam.real.max(axis=-1)
    return lam, w, abscissa, abscissa < STABILITY_MARGIN


def _norm(m):
    return np.linalg.norm(m, np.inf, axis=(-2, -1))


def _residual(a, v, q):
    """(R, max |R_ij|) for R = A V + V A^T + Q: one drift (n, n), or per drift of a stack."""
    r = a @ v + v @ np.swapaxes(a, -1, -2) + q
    return r, np.abs(r).max(axis=(-2, -1))


def _solve(a, q, lam, w):
    """(V, max-entry residual, solver per drift) for a stack with its eigensystems."""
    # a defective W gives inf or NaN, caught below; a V that overflows, caught by cool_many
    with np.errstate(all="ignore"):
        try:
            w_inv = np.linalg.inv(w)
        except np.linalg.LinAlgError:  # an exactly singular W: Schur for the whole stack
            w_inv = np.full_like(w, np.nan)
        f = w_inv @ -q @ np.swapaxes(w_inv, -1, -2)
        v = w @ (f / (lam[:, :, None] + lam[:, None, :])) @ np.swapaxes(w, -1, -2)
        r, residual = _residual(a, v, q)
        backward = _norm(r) / (2.0 * _norm(a) * _norm(v) + _norm(q))
        solver = ["eig"] * len(a)
        for k in np.flatnonzero(~(backward <= BACKWARD_ERROR_TOL)):
            import scipy.linalg  # here alone, off the cold start of a run with no Schur solve
            v[k] = scipy.linalg.solve_sylvester(a[k], a[k].T, -q[k])
            residual[k] = _residual(a[k], v[k], q[k])[1]
            solver[k] = "schur"
    return v, residual, solver


def stability_check(drift):
    """(stable, abscissa): stable iff max Re eig(A) < STABILITY_MARGIN."""
    _, _, abscissa, stable = _verdict(drift.a[None])
    return bool(stable[0]), float(abscissa[0])


def lyapunov_solve(drift, require_stable=True):
    """Solve A V + V A^T = -Q for the steady-state covariance V.

    With require_stable=True, Unstable is raised exactly when stability_check
    calls the drift unstable.  With require_stable=False the equation is
    solved regardless of the spectral abscissa; the result is then not a
    physical steady state (used only for diagnostics of approximation
    breakdown).
    """
    a, q = drift.a[None], drift.q[None]
    lam, w, abscissa, stable = _verdict(a)
    if require_stable and not stable[0]:
        raise unstable(float(abscissa[0]))
    return _solve(a, q, lam, w)[0][0]


def lyapunov_residual(drift, v):
    """Largest entry magnitude of A V + V A^T + Q."""
    return float(_residual(drift.a, v, drift.q)[1])


def _occupations(v, n_mech):
    """(n_f, n_cav) from covariances (..., 2N+2, 2N+2): the (db_j^+, db_j) and
    (da^+, da) elements minus 1/2."""
    dim = n_mech + 1
    n_f = v[..., dim + 1:, 1:dim].diagonal(axis1=-2, axis2=-1).real - 0.5
    return n_f, v[..., dim, 0].real - 0.5


def phonon_numbers(v, n_mech):
    """Extract per-mode occupations from the covariance matrix.

    n_j^f is the (db_j^+, db_j) element minus 1/2; the cavity occupation
    comes from the analogous (da^+, da) element.  The report's stability
    verdict is None and its spectral abscissa and residual are NaN: they
    need the drift, not V alone (a V that lyapunov_solve gave with
    require_stable=False may belong to an unstable drift).
    """
    dim = n_mech + 1
    if v.shape != (2 * dim, 2 * dim):
        raise ShapeMismatch("covariance shape %s does not match n_mech=%d"
                            % (v.shape, n_mech))
    n_f, n_cav = _occupations(v, n_mech)
    return CoolingReport(n_f=n_f, n_cav=float(n_cav), stable=None,
                         spectral_abscissa=math.nan, residual=math.nan)


def cool_many(a, q):
    """Reports for a stack of drifts a (G, n, n) with noise q (G, n, n).

    The batched engine: one eigendecomposition per drift, then the Lyapunov
    solve and phonon extraction for the stable ones.  Returns one
    CoolingReport whose fields are arrays over the G drifts: n_f (G, N),
    n_cav, stable, spectral_abscissa, residual (G,), and solver, an object
    array of "eig", "schur" or None.  Unstable drifts get NaN occupations and
    residual and no solver.  A stable drift whose occupations or residual are
    not finite is a numerical failure, named by require_finite.
    """
    a = np.asarray(a).astype(complex, copy=False)
    size, n_mech = len(a), a.shape[-1] // 2 - 1
    lam, w, abscissa, stable = _verdict(a)
    batch = CoolingReport(n_f=np.full((size, n_mech), math.nan),
                          n_cav=np.full(size, math.nan), stable=stable,
                          spectral_abscissa=abscissa, residual=np.full(size, math.nan),
                          solver=np.full(size, None, object))
    k = np.flatnonzero(stable)
    if k.size:
        v, batch.residual[k], batch.solver[k] = _solve(a[k], q[k], lam[k], w[k])
        batch.n_f[k], batch.n_cav[k] = _occupations(v, n_mech)
        require_finite("steady-state occupations", n_f=batch.n_f[k], n_cav=batch.n_cav[k])
        require_finite("steady-state residual", residual=batch.residual[k])
    return batch


def cool(drift):
    """Stability check + Lyapunov solve + phonon extraction, one eigensolve."""
    report = cool_or_flag(drift)
    if not report.stable:
        raise unstable(report.spectral_abscissa)
    return report


def cool_or_flag(drift):
    """Like cool(), but an unstable drift yields a NaN-occupations record.

    Row 0 of cool_many's report: a per-mode column's ndarray row, else a Python scalar.
    """
    batch = cool_many(drift.a[None], drift.q[None])
    return CoolingReport(**{name: column[0] if column.ndim > 1 else column[:1].item()
                            for name, column in vars(batch).items()})
