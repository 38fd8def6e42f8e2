"""Steady-state covariance, phonon extraction, and stability certification.

The covariance matrix V solves A V + V A^T = -Q (plain transpose, complex A,
matching the operator-ordered correlation matrix).  It is obtained by the
Bartels-Stewart method (Schur forms of A and A^T, then a triangular Sylvester
solve; Bartels & Stewart, CACM 15, 1972) at O(n^3) cost.  One margin decides
stability everywhere: a drift is stable iff its spectral abscissa is below
STABILITY_MARGIN.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import numkit
from .errors import ShapeMismatch, Unstable

#: spectral abscissas at or above this are unstable; closer to zero the
#: steady state is too ill-conditioned to report
STABILITY_MARGIN = -1e-10


@dataclass
class CoolingReport:
    n_f: np.ndarray
    n_cav: float
    stable: bool
    spectral_abscissa: float
    residual: float


def stability_check(drift):
    """(stable, abscissa): stable iff max Re eig(A) < STABILITY_MARGIN."""
    abscissa = float(np.max(numkit.eigenvalues(drift.a).real))
    return abscissa < STABILITY_MARGIN, abscissa


def _unstable(abscissa):
    return Unstable("spectral abscissa %.3e >= %.0e" % (abscissa, STABILITY_MARGIN),
                    abscissa=abscissa)


def lyapunov_solve(drift, require_stable=True):
    """Solve A V + V A^T = -Q for the steady-state covariance V.

    With require_stable=True, Unstable is raised exactly when stability_check
    calls the drift unstable.  With require_stable=False the equation is
    solved regardless of the spectral abscissa; the result is then not a
    physical steady state (used only for diagnostics of approximation
    breakdown).
    """
    if require_stable:
        stable, abscissa = stability_check(drift)
        if not stable:
            raise _unstable(abscissa)
    a = drift.a
    return scipy.linalg.solve_sylvester(a, a.T, -drift.q)


def lyapunov_residual(drift, v):
    return numkit.norm_inf(drift.a @ v + v @ drift.a.T + drift.q)


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
    n_f = np.array([v[dim + 1 + j, 1 + j].real - 0.5 for j in range(n_mech)])
    n_cav = float(v[dim, 0].real - 0.5)
    return CoolingReport(n_f=n_f, n_cav=n_cav, stable=True,
                         spectral_abscissa=math.nan, residual=math.nan)


def cool(drift):
    """Stability check + Lyapunov solve + phonon extraction, one eigensolve."""
    stable, abscissa = stability_check(drift)
    if not stable:
        raise _unstable(abscissa)
    v = lyapunov_solve(drift, require_stable=False)
    return replace(phonon_numbers(v, drift.spec.n_mech), spectral_abscissa=abscissa,
                   residual=lyapunov_residual(drift, v))


def cool_or_flag(drift):
    """Like cool(), but unstable points yield a NaN-occupations record.

    Used inside sweeps so a single unstable grid point does not abort the run.
    """
    try:
        return cool(drift)
    except Unstable as exc:
        n = drift.spec.n_mech
        return CoolingReport(n_f=np.full(n, math.nan), n_cav=math.nan,
                             stable=False,
                             spectral_abscissa=float(exc.abscissa),
                             residual=math.nan)
