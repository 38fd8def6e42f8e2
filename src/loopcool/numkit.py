"""Dense complex linear-algebra helpers used by every other module.

Matrices are plain numpy complex128 arrays.  The routines here wrap LAPACK
(via numpy/scipy) behind the error contracts the rest of the package relies
on: explicit singularity thresholds, eigenvalues that raise NoConvergence on
failure, and a capped Kronecker product.  KRON_CAP also caps the lift of the
RK4 time-domain oracle, `kernels.rk4_lyapunov_flow`.
"""

import numpy as np
from scipy.linalg import lapack

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
    """Largest entry magnitude max |a_ij| (0.0 for an empty array).

    This is not the induced infinity norm (largest absolute row sum) that the
    backward-error test of `steadystate.cool_many` uses.
    """
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
