"""Dense complex linear-algebra helpers used by every other module.

Matrices are plain numpy complex128 arrays.  The routines here wrap LAPACK
(via numpy/scipy) behind the error contracts the rest of the package relies
on: explicit singularity thresholds, eigenvalues that raise NoConvergence on
failure, a capped Kronecker product, and a fixed-step RK4 integrator for the
differential Lyapunov flow (a small-N oracle, see `kernels`).
"""

import numpy as np
from scipy.linalg import lapack

from . import kernels
from .errors import DimensionOverflow, NoConvergence, ShapeMismatch, SingularMatrix

#: hard cap on the dimension of Kronecker-lifted systems
KRON_CAP = 4096

#: pivot magnitudes below PIVOT_RTOL * ||a||_inf are treated as singular
PIVOT_RTOL = 1e-14


def as_cmatrix(a):
    """Validate and convert to a finite complex128 2-D array."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ShapeMismatch("expected a 2-D array, got ndim=%d" % a.ndim)
    if not np.all(np.isfinite(a)):
        raise ShapeMismatch("matrix contains non-finite entries")
    return a


def norm_inf(a):
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.abs(a).max())


def solve_linear(a, b):
    """Solve a @ x = b for square a.

    Raises SingularMatrix when an LU pivot magnitude falls below
    PIVOT_RTOL * ||a||_inf.
    """
    a = as_cmatrix(a)
    b = np.asarray(b, dtype=np.complex128)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch("coefficient matrix must be square")
    if b.shape[0] != n:
        raise ShapeMismatch("rhs rows %d != matrix dim %d" % (b.shape[0], n))
    # LAPACK directly: scipy's lu_factor warns on an exactly zero pivot, which
    # the threshold below turns into SingularMatrix anyway
    lu, piv, _ = lapack.zgetrf(a)
    scale = norm_inf(a)
    pivots = np.abs(np.diag(lu))
    if scale == 0.0 or pivots.min() <= PIVOT_RTOL * scale:
        raise SingularMatrix("pivot below %g * ||a||_inf" % PIVOT_RTOL)
    return lapack.zgetrs(lu, piv, b)[0]


def eigenvalues(a):
    """Eigenvalues of a square complex matrix (QR iteration via LAPACK)."""
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch("matrix must be square")
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("eigenvalue iteration failed: %s" % exc)


def kron(a, b, cap=KRON_CAP):
    """Kronecker product with a dimension cap on the result."""
    a = as_cmatrix(a)
    b = as_cmatrix(b)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if max(rows, cols) > cap:
        raise DimensionOverflow("kron result %dx%d exceeds cap %d" % (rows, cols, cap))
    return np.kron(a, b)


def default_dt(a):
    """Step size heuristic for the RK4 Lyapunov flow: 0.01 / scale(a)."""
    a = np.asarray(a)
    scale = max(norm_inf(a) * a.shape[0] ** 0.5, 1e-12)
    return 0.01 / scale


def integrate_linear_ode(a, rhs_const, x0, t_end, dt=None):
    """X(t_end) of dX/dt = a X + X a^T + rhs_const, fixed-step RK4.

    For a Hurwitz drift this converges to the Lyapunov steady state as
    t_end grows.  The steps are taken by powering the n^2 x n^2 RK4 step map,
    at n^6 cost, so this is for small drifts: DimensionOverflow is raised when
    n^2 exceeds KRON_CAP.  Raises BlowUp on divergence.
    """
    a = as_cmatrix(a)
    rhs_const = as_cmatrix(rhs_const)
    x0 = as_cmatrix(x0)
    if rhs_const.shape != a.shape or x0.shape != a.shape:
        raise ShapeMismatch("x0 and rhs_const must match the drift's shape")
    if dt is None:
        dt = default_dt(a)
    if dt <= 0:
        raise ShapeMismatch("dt must be positive")
    return kernels.rk4_lyapunov_flow(a, rhs_const, x0, t_end, dt)
